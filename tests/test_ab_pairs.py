import importlib.util
import subprocess
from pathlib import Path

spec = importlib.util.spec_from_file_location("ab_pairs", Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def test_a_claim_holds_on_nine_wins_in_ten_and_a_gap_beyond_the_base_spread():
    base = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 10.1, 9.9]
    change = [b - 1.0 for b in base]
    got = ab_pairs.verdict(base, change, "lower")
    assert got["wins"] == 10 and got["gap"] > got["base_iqr"] and got["claim_holds"]
    # higher-is-better metrics count wins the other way round
    assert ab_pairs.verdict(change, base, "higher")["claim_holds"]
    assert not ab_pairs.verdict(base, change, "higher")["claim_holds"]
    # a tie counts for neither side
    assert ab_pairs.verdict(base, base[:9] + [base[9] - 1.0], "lower")["wins"] == 1


def test_a_claim_fails_when_every_pair_wins_but_the_gap_lies_inside_the_base_spread():
    # a 6.5% faster median on a workload that drifts more than that: each
    # pair's change is faster, but the base's quartiles span the gap
    base = [28.5, 29.0, 29.5, 30.5, 31.3, 31.3, 32.5, 33.5, 34.0, 35.0]
    change = [b * 0.935 for b in base]
    got = ab_pairs.verdict(base, change, "lower")
    assert got["wins"] == 10
    assert 0 < got["gap"] < got["base_iqr"]
    assert not got["claim_holds"]


def test_the_change_side_is_copied_without_bytecode(tmp_path):
    # the change side runs from a copy: modified and new files as they are
    # in the working tree, and no `__pycache__` that would spare it the
    # compile the base side pays for
    root, dest = tmp_path / "repo", tmp_path / "copy"
    (root / "pkg" / "__pycache__").mkdir(parents=True)
    (root / ".gitignore").write_text("__pycache__/\nbuild/\n")
    (root / "pkg" / "mod.py").write_text("x = 1\n")
    (root / "pkg" / "gone.py").write_text("y = 1\n")
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run(["git", "add", "-A"], cwd=root, check=True)
    (root / "pkg" / "mod.py").write_text("x = 2\n")
    (root / "pkg" / "gone.py").unlink()
    (root / "pkg" / "new.py").write_text("z = 3\n")
    (root / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"stale")
    (root / "build").mkdir()
    (root / "build" / "out.txt").write_text("ignored\n")
    ab_pairs.clean_copy(root, dest)
    copied = sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "x = 2\n"
