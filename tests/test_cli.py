"""End-to-end command line tests.

Everything runs in-process through ``main(argv)`` so exit codes and
stdout/stderr are observable; one subprocess smoke test covers the
``python -m`` entry.
"""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from zcenter.cli import main
from zcenter.group_core import (conjugacy_classes, make_symmetric,
                                parse_group_spec)
from zcenter.pointed_center import MAX_LIFT_WORK
from zcenter.twisted_rep import IrrepProfile


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# -- group-info --------------------------------------------------------

def test_group_info_text(capsys):
    code, out, err = run(capsys, "group-info", "--group", "S3")
    assert code == 0
    assert "order: 6" in out
    assert "abelian: no" in out
    assert "class sizes: 1 3 2" in out


def test_group_info_json(capsys):
    payload = run_json(capsys, "group-info", "--group", "S3")
    assert payload["label"] == "S3"
    assert payload["order"] == 6
    assert payload["exponent"] == 6
    assert payload["abelian"] is False
    assert payload["center_order"] == 1
    assert [c["size"] for c in payload["classes"]] == [1, 3, 2]
    assert payload["relabeled"] is False


def test_group_info_from_file(capsys, tmp_path):
    # identity sits at index 1, so loading relabels
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(
        {"order": 2, "table": [[1, 0], [0, 1]], "label": "swapped"}))
    payload = run_json(capsys, "group-info", "--group", f"file:{path}")
    assert payload["order"] == 2
    assert payload["relabeled"] is True

    code, out, _ = run(capsys, "group-info", "--group", f"file:{path}")
    assert code == 0
    assert "relabeled" in out


def test_group_file_errors(capsys, tmp_path):
    code, _, err = run(capsys, "group-info", "--group",
                       f"file:{tmp_path}/nope.json")
    assert code == 2
    assert "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "group-info", "--group", f"file:{bad}")
    assert code == 2
    assert "JSON" in err

    code, _, err = run(capsys, "group-info", "--group", "Z12")
    assert code == 2


def test_missing_group_flag():
    with pytest.raises(SystemExit) as ei:
        main(["group-info"])
    assert ei.value.code == 2


# -- cohomology --------------------------------------------------------

def test_cohomology_zero(capsys):
    payload = run_json(capsys, "cohomology", "--group", "C2",
                       "--cocycle", "zero")
    assert payload["modulus"] == 2
    assert payload["is_cocycle"] is True
    assert payload["is_coboundary"] is True


def test_cohomology_modulus_flag(capsys):
    payload = run_json(capsys, "cohomology", "--group", "C2",
                       "--cocycle", "zero", "--modulus", "4")
    assert payload["modulus"] == 4


def test_cohomology_cup_not_coboundary(capsys):
    payload = run_json(capsys, "cohomology", "--group", "C2",
                       "--cocycle", "cup:0,0,0")
    assert payload["is_cocycle"] is True
    assert payload["is_coboundary"] is False


def test_cohomology_degree2_file(capsys, tmp_path):
    # the Z/4-extension cocycle on C2: cocycle, not a coboundary mod 2
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(
        {"modulus": 2, "degree": 2, "entries": [[1, 1, 1]]}))
    payload = run_json(capsys, "cohomology", "--group", "C2",
                       "--cocycle", f"file:{path}")
    assert payload["degree"] == 2
    assert payload["is_cocycle"] is True
    assert payload["is_coboundary"] is False


def test_cohomology_non_cocycle_file_reports(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"modulus": 4, "degree": 3, "entries": [[1, 1, 1, 1]]}))
    payload = run_json(capsys, "cohomology", "--group", "C4",
                       "--cocycle", f"file:{path}")
    assert payload["is_cocycle"] is False
    assert payload["failure_certificate"] == [1, 1, 1, 1]

    code, out, _ = run(capsys, "cohomology", "--group", "C4",
                       "--cocycle", f"file:{path}")
    assert code == 0
    assert "cocycle: no" in out
    assert "failure certificate: 1 1 1 1" in out


def test_cocycle_spec_errors(capsys):
    for spec in ("wat", "cup:0,1", "cup:a,b,c", "cup:0,0,0:x"):
        code, _, err = run(capsys, "cohomology", "--group", "C2",
                           "--cocycle", spec)
        assert code == 2, spec
        assert "error:" in err

    # modulus not a multiple of the exponent
    code, _, err = run(capsys, "cohomology", "--group", "S3",
                       "--cocycle", "zero", "--modulus", "4")
    assert code == 2
    assert "multiple" in err

    # explicit modulus conflicting with the cup suffix
    code, _, err = run(capsys, "cohomology", "--group", "C2",
                       "--cocycle", "cup:0,0,0:4", "--modulus", "2")
    assert code == 2
    assert "conflicts" in err

    code, _, err = run(capsys, "cohomology", "--group", "C2",
                       "--cocycle", "cup:0,0,5")
    assert code == 2


def test_cocycle_file_errors(capsys, tmp_path):
    code, _, err = run(capsys, "cohomology", "--group", "C2",
                       "--cocycle", f"file:{tmp_path}/nope.json")
    assert code == 2
    assert "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("]")
    code, _, err = run(capsys, "cohomology", "--group", "C2",
                       "--cocycle", f"file:{bad}")
    assert code == 2


@pytest.mark.parametrize("table,problem", [
    ([[0, 1], [1, 0.5]], "integers"),        # was truncated to C2
    (7, "shape"),                            # was a TypeError on len()
    ([[0, 1], [1, 4294967296]], "range"),    # was an int32 OverflowError
])
def test_malformed_group_table(capsys, tmp_path, table, problem):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"order": 2, "table": table}))
    code, out, err = run(capsys, "group-info", "--group", f"file:{path}")
    assert (code, out) == (2, "")
    assert problem in err


@pytest.mark.parametrize("entries,problem", [
    ([[1, 1, 1.7]], "integer"),   # was read as 1 through int()
    ([5], "arity"),               # was a TypeError on len()
    ([[1, 1, None]], "integer"),  # was a TypeError in int()
    ([[1, 1, True]], "integer"),  # was read as 1: bool is an int subclass
    ([[True, 1, 1]], "index"),    # was read as element 1
])
def test_malformed_cocycle_entries(capsys, tmp_path, entries, problem):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(
        {"modulus": 2, "degree": 2, "entries": entries}))
    code, out, err = run(capsys, "cohomology", "--group", "C2",
                         "--cocycle", f"file:{path}")
    assert (code, out) == (2, "")
    assert problem in err


@pytest.mark.parametrize("field", ["modulus", "degree"])
def test_boolean_cocycle_header(capsys, tmp_path, field):
    # true was read as 1: modulus 1 printed "modulus: True" and exited 0
    data = {"modulus": 2, "degree": 2, "entries": []}
    data[field] = True
    path = tmp_path / "w.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "cohomology", "--group", "C2",
                         "--cocycle", f"file:{path}")
    assert (code, out) == (2, "")
    assert f"bad {field} True" in err


def test_modulus_bound(capsys, tmp_path):
    # residues mod N >= 2^31 could overflow int64: every way a modulus
    # enters is refused with the bound named, and no verdict is printed
    big = tmp_path / "big.json"
    big.write_text(json.dumps(
        {"modulus": 2 ** 31, "degree": 2, "entries": [[1, 1, 2 ** 70]]}))
    for argv, exit_code in (
            (("center-report", "--group", "C3",
              "--cocycle", "cup:0,0,0:9223372036854775806"), 2),
            (("center-report", "--group", "C3",
              "--cocycle", "cup:0,0,0:100000000000000000002"), 2),
            (("cohomology", "--group", "C2", "--cocycle", "zero",
              "--modulus", "100000000000000000000"), 1),
            (("cohomology", "--group", "C2", "--cocycle", f"file:{big}"), 2)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (exit_code, ""), argv
        assert "2147483648" in err, argv


@pytest.mark.parametrize("group", ["C256", "C2000"])
@pytest.mark.parametrize("kind", ["cup", "file"])
def test_degree3_bound_refused_before_allocating(capsys, tmp_path, group,
                                                 kind):
    # a size bound exits 1, as for zero; C2000 would need a 59.6 GiB array
    path = tmp_path / "one.json"
    path.write_text(json.dumps(
        {"modulus": 2, "degree": 3, "entries": [[1, 1, 1, 1]]}))
    spec = "cup:0,0,0" if kind == "cup" else f"file:{path}"
    code, out, err = run(capsys, "cohomology", "--group", group,
                         "--cocycle", spec)
    assert (code, out) == (1, "")
    assert "degree-3 bound 128" in err and "Traceback" not in err


# -- obstruction / center-report / lift / simples ----------------------

def test_obstruction_cup(capsys):
    payload = run_json(capsys, "obstruction", "--group", "C2xC2xC2",
                       "--cocycle", "cup:0,1,2")
    assert payload["modulus"] == 2
    rows = payload["obstructions"]
    assert len(rows) == 8
    assert [r["vanishes"] for r in rows] == [True] + [False] * 7

    code, out, _ = run(capsys, "obstruction", "--group", "C2xC2xC2",
                       "--cocycle", "cup:0,1,2")
    assert code == 0
    assert out.count("non-vanishing") == 7


def test_non_cocycle_file_fails_computation(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"modulus": 4, "degree": 3, "entries": [[1, 1, 1, 1]]}))
    code, _, err = run(capsys, "obstruction", "--group", "C4",
                       "--cocycle", f"file:{path}")
    assert code == 1
    assert "failure certificate: 1 1 1 1" in err


def test_center_report_json(capsys):
    payload = run_json(capsys, "center-report", "--group", "C2xC2",
                       "--cocycle", "zero")
    assert payload["group"] == "C2xC2"
    assert payload["modulus"] == 2
    assert payload["kernel_char"] == {"invariant_factors": [2, 2]}
    assert payload["simple_central_objects"] == 16
    assert all(o["vanishes"] for o in payload["obstructions"])
    assert payload["lifts"][0] == {"spec": [1, 0, 0, 0], "count": 4}
    assert set(payload["e_pages"]) == {
        "e1_00", "e1_01", "e1_11", "e1_21",
        "e2_00", "e2_01", "e2_11", "universal_grading"}


def test_center_report_text(capsys):
    code, out, _ = run(capsys, "center-report", "--group", "S3",
                       "--cocycle", "zero")
    assert code == 0
    assert "simple central objects: 8" in out
    assert "lift 0:1: 2" in out
    assert "lift 2:1: 3" in out


def test_center_report_deterministic(capsys):
    a = run_json(capsys, "center-report", "--group", "S4",
                 "--cocycle", "zero")
    b = run_json(capsys, "center-report", "--group", "S4",
                 "--cocycle", "zero")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# sha256 of stdout as recorded before class algebras reused the verified
# group and cocycle; refactors must keep every output byte-identical
GOLDEN_STDOUT = [
    (("center-report", "--group", "C2xC2xC2xC2xC2", "--cocycle", "cup:0,1,2",
      "--json"),
     "181dcb2b9017ad9a314a5b9fe6df813f2e62faff9fdb4cf88fc77594c6c0cf9d"),
    (("center-report", "--group", "C4xC4xC2", "--cocycle", "cup:0,1,2",
      "--json"),
     "2e0a7826bdaf3f7a14ca0b6d1c6a756c9769f223f57d5711b523654623e4ebee"),
    (("center-report", "--group", "S4", "--cocycle", "zero", "--json"),
     "fe50a2c3f4dbd7b5e3f36c48a59c0359ab185d61ec678c6d494442d8e7ded6d5"),
    (("center-report", "--group", "A5", "--cocycle", "zero", "--json"),
     "fcfb0c50ff81f0dc32299be32c0b451e27307cb4762fb535aa4fb0b44dada450"),
    (("obstruction", "--group", "C3xC3xC3", "--cocycle", "cup:0,1,2"),
     "99a3742a5f5d6866b3c04ffd1d8f7f8d1f196c0856a4d6fbc35ba508e752ea7b"),
    # recorded before the group layer's power, permutation-group and
    # reach-mask code was written once; C4xC2 has mixed factor orders
    (("group-info", "--group", "S7", "--json"),
     "024ee20a651289ba95c26392d411bd8fb497d4d8152469adb5d17b0e22d7eb86"),
    (("group-info", "--group", "A6", "--json"),
     "ab6b744ce71b6478b0ff35b503eb6a2585070edb1a36d79aea8c036860eb73a9"),
    (("group-info", "--group", "A1", "--json"),
     "72e173d2cdd3cecc7b7e3ec2bb578ebf70a3fa27fbc3c03d81c11e5d3f53c029"),
    (("bands", "types", "--group", "A6", "--json"),
     "9d92082e38ba8d4922c67e399da326491122b9e500ccb9ff9475df6dd756db23"),
    (("bands", "types", "--group", "C2xC2xC2xC2", "--json"),
     "6e91e4d45c1efb1817698933a6a8ce3ef8623145b6989cf154ba6f23cd9ac33f"),
    (("bands", "families", "--universe", "S3,C4,S4,C6,A4", "--json"),
     "3fbe6bc965799e66e60bd56350f9f56e2e46d56248347860f1f0855a984a2201"),
    (("center-report", "--group", "C4xC2", "--cocycle", "cup:0,0,1",
      "--json"),
     "f98464a65a4b7d41a3416f960948bd61ec066a921187b1c2ec9aec8001adbfe1"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT,
                         ids=["-".join(x for x in a if not x.startswith("--"))
                              for a, _ in GOLDEN_STDOUT])
def test_stdout_matches_recorded_digest(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_relabeled_file_group_matches_recorded_digest(capsys, tmp_path):
    # S3 with its elements renamed, the identity at index 3
    path = tmp_path / "relabeled.json"
    path.write_text(json.dumps({"order": 6, "label": "rel", "table": [
        [3, 2, 1, 0, 5, 4], [5, 4, 0, 1, 3, 2], [4, 5, 3, 2, 0, 1],
        [0, 1, 2, 3, 4, 5], [2, 3, 5, 4, 1, 0], [1, 0, 4, 5, 2, 3]]}))
    code, out, err = run(capsys, "group-info", "--group", f"file:{path}",
                         "--json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7cb463c3e51f03e21b7a851c77f3f57109900e589825f9bd83579c66e105841b")


def _coboundary_file(path, spec, phi, N):
    """Write delta(phi) for a sparse normalized phi of degree 1 or 2."""
    T = parse_group_spec(spec).table
    n, k = len(T), len(next(iter(phi))) + 1
    F = np.zeros((n,) * (k - 1), dtype=np.int64)
    for key, v in phi.items():
        F[key] = v
    if k == 2:
        f = F[None, :] - F[T] + F[:, None]
    else:
        a, b, c = np.ix_(range(n), range(n), range(n))
        f = F[b, c] - F[T[a, b], c] + F[a, T[b, c]] - F[a, b]
    entries = [[*map(int, idx), int(f[tuple(idx)] % N)]
               for idx in np.argwhere(f % N)]
    path.write_text(json.dumps({"modulus": N, "degree": k,
                                "entries": entries}))
    return f"file:{path}"


# sha256 of stdout with the witnesses of the generator-tree unknowns
# (`cohomology._tree_rows`), 424 and 54 entries, each checked to satisfy
# delta(phi) = f.  A witness is fixed only up to a (k-1)-cocycle, so
# another choice of unknowns may pick another; solver work must keep these
COBOUNDARY_WITNESSES = [
    ("C3xC3xC3", {(1, 2): 1, (4, 9): 2, (13, 26): 1, (5, 5): 2, (20, 7): 1,
                  (3, 1): 1, (17, 11): 2, (8, 24): 1}, 3,
     "ef2e794b39d140cb9c24ce7bfa4effbb32ae69c933ccd59573aa1faa85eb0e90"),
    ("C8xC8", {(1,): 3, (9,): 5, (17,): 1, (40,): 7, (63,): 2, (8,): 4,
               (27,): 6, (50,): 1}, 8,
     "fa2537a560204c7e404917903e827596afb4add65fe4dd120a3b4b771fa12cba"),
]


@pytest.mark.parametrize("spec,phi,N,digest", COBOUNDARY_WITNESSES,
                         ids=[w[0] for w in COBOUNDARY_WITNESSES])
def test_coboundary_witness_matches_recorded_digest(capsys, tmp_path, spec,
                                                    phi, N, digest):
    cocycle = _coboundary_file(tmp_path / "cob.json", spec, phi, N)
    code, out, err = run(capsys, "cohomology", "--group", spec, "--cocycle",
                         cocycle, "--json")
    assert code == 0, err
    assert json.loads(out)["is_coboundary"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec,message", [
    ("S8", "S(8) has order 40320; its table exceeds the memory guard (10000)"),
    ("A8", "A(8) has order 20160; its table exceeds the memory guard (10000)"),
    ("S9", "S(9) exceeds the m <= 8 bound"),
    ("A0", "need m >= 1, got 0"),
], ids=["S8", "A8", "S9", "A0"])
def test_permutation_group_refusals(capsys, spec, message):
    assert run(capsys, "group-info", "--group", spec) == (
        2, "", f"error: {message}\n")


def test_lift_counts(capsys):
    payload = run_json(capsys, "lift", "--group", "C2xC2xC2",
                       "--cocycle", "cup:0,1,2", "--spec", "4:2")
    assert payload["count"] == 2
    assert payload["spec"] == [0, 0, 0, 0, 2, 0, 0, 0]

    payload = run_json(capsys, "lift", "--group", "C2xC2xC2",
                       "--cocycle", "cup:0,1,2", "--spec", "0:2")
    assert payload["count"] == 36

    code, out, _ = run(capsys, "lift", "--group", "C2", "--cocycle", "zero",
                       "--spec", "0:1")
    assert code == 0
    assert out.strip() == "count: 2"


def test_lift_empty_spec(capsys):
    payload = run_json(capsys, "lift", "--group", "C2",
                       "--cocycle", "zero", "--spec", "")
    assert payload["spec"] == [0, 0]
    assert payload["count"] == 1


def test_lift_spec_errors(capsys):
    for spec in ("1", "0:x", "0:1,1:", "9:1", "0:-1", "0:1,0:2"):
        code, _, err = run(capsys, "lift", "--group", "C2",
                           "--cocycle", "zero", "--spec", spec)
        assert code == 2, spec
    assert "class index 0 given more than once" in err


def test_lift_refuses_one_past_the_work_bound(capsys, monkeypatch):
    # C2^7 has 128 one-dimensional irreducibles per class, so multiplicity
    # 2^17 is exactly MAX_LIFT_WORK = 2^24 and one more is refused before
    # any count is computed
    def no_count(self, m):
        raise AssertionError("count computed past the bound")

    monkeypatch.setattr(IrrepProfile, "count_of_dim", no_count)
    code, out, err = run(capsys, "lift", "--group", "C2xC2xC2xC2xC2xC2xC2",
                         "--cocycle", "zero", "--spec", "0:131073")
    assert (code, out) == (1, "")
    assert f"is {131073 * 128}, above the bound MAX_LIFT_WORK" in err
    assert str(MAX_LIFT_WORK) in err and MAX_LIFT_WORK == 2 ** 24


def test_lift_rejects_degree2_file(capsys, tmp_path):
    path = tmp_path / "deg2.json"
    path.write_text(json.dumps(
        {"modulus": 2, "degree": 2, "entries": [[1, 1, 1]]}))
    code, _, err = run(capsys, "lift", "--group", "C2",
                       "--cocycle", f"file:{path}", "--spec", "0:1")
    assert code == 2
    assert "degree" in err


def test_simples(capsys):
    payload = run_json(capsys, "simples", "--group", "C2",
                       "--cocycle", "cup:0,0,0")
    assert payload["simple_central_objects"] == 4

    payload = run_json(capsys, "simples", "--group", "S3",
                       "--cocycle", "zero")
    assert payload["simple_central_objects"] == 8


# -- bands -------------------------------------------------------------

def test_bands_types_s3(capsys):
    code, out, _ = run(capsys, "bands", "types", "--group", "S3")
    assert code == 0
    assert "types: 0 1 3 5" in out

    payload = run_json(capsys, "bands", "types", "--group", "S3")
    assert payload["exponent"] == 6
    assert payload["types"] == [0, 1, 3, 5]
    S3 = make_symmetric(3)
    cls = conjugacy_classes(S3).class_of
    for w in payload["witnesses"]:
        n, images = w["type"], w["images"]
        for g in range(6):
            assert cls[images[g]] == cls[S3.power(g, n)]


def test_bands_families(capsys):
    payload = run_json(capsys, "bands", "families", "--universe", "S3,C4")
    assert payload["modulus"] == 12
    assert payload["families"] == [0, 1, 3, 5, 6, 7, 9, 11]
    assert payload["universe"] == ["S3", "C4"]


def test_bands_families_bad_universe(capsys):
    code, _, err = run(capsys, "bands", "families", "--universe", "S3,")
    assert code == 2


# -- process-level smoke ----------------------------------------------

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "zcenter.cli", "group-info",
         "--group", "S3", "--json"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 6


def test_nonabelian_report_imports_no_numpy_ma():
    # a plain np.unique imports numpy.ma (8-15 ms at start-up); e2_11's
    # relation rows drop only their zero rows, with no np.unique(axis=0)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "zcenter.cli",
         "center-report", "--group", "S4", "--cocycle", "zero", "--json"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    modules = {line.rsplit("|", 1)[-1].strip()
               for line in proc.stderr.splitlines()
               if line.startswith("import time:")}
    assert "numpy" in modules and "numpy.ma" not in modules
