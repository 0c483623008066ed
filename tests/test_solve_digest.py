import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "solve_digest.py"
_spec = importlib.util.spec_from_file_location("solve_digest", TOOL)
solve_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solve_digest)

SAVED = [
    "# seed 7 membership",
    "0 member_l1 si v=None None\tOptimal 0x0.0p+0 0x1.0p-37 6 - 5,5,5,5",
    "0 member_l1 si v=None None\t= Feasible",
    "1 member_l1 si v=None (0.25, 0.25)\tOptimal 0x0.0p+0 0x1.0p-36 6 - 5,5,5,5",
    "1 member_l1 si v=None (0.25, 0.25)\t= Feasible",
    "2 member_l1 pr v=1.0 (0.2, 0.3)\tPrimalInfeasible nan nan 8 ab12 5,5,5,5",
    "2 member_l1 pr v=1.0 (0.2, 0.3)\t= Infeasible",
]


def test_same_digest_compares_equal(capsys):
    assert solve_digest.compare(SAVED, list(SAVED)) == 0
    out = capsys.readouterr().out
    assert "3 solves matched: 0 differ in status or iterations, 3 lines identical" in out
    assert "0 differences" in out


def test_dropped_solve_is_listed_by_operation(capsys):
    lines = [line for line in SAVED if not line.startswith("0 member_l1 si v=None None\tOptimal")]
    lines[lines.index(SAVED[3])] = SAVED[3].replace(" 6 - 5,5,5,5", " 7 - 5")
    assert solve_digest.compare(SAVED, lines) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "seed 7 membership op 0 member_l1 si v=None None: solves removed, 1 -> 0"
    assert out[1] == ("seed 7 membership op 1 member_l1 si v=None (0.25, 0.25) solve 1: "
                      "Optimal in 6 -> Optimal in 7 iterations")
    assert out[2].startswith("2 solves matched: 1 differ in status or iterations, "
                             "1 lines identical")
    assert out[2].endswith("1 differences in operations' solve lists or answers")
    # and the other way round, the solve is added
    assert solve_digest.compare(lines, SAVED) == 1
    assert "solves added, 0 -> 1" in capsys.readouterr().out


def test_changed_answer_is_listed(capsys):
    lines = [line.replace("= Infeasible", "= Unknown") for line in SAVED]
    assert solve_digest.compare(SAVED, lines) == 1
    assert ("seed 7 membership op 2 member_l1 pr v=1.0 (0.2, 0.3): answer Infeasible "
            "-> Unknown") in capsys.readouterr().out
