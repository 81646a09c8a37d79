"""The experiment scripts, run as a user runs them, print the recorded tables."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LADDER_SURVEY_30 = """\
30 sets, seed 13, <= 3 constraints, <= 3 atoms
first accepting check    sets
weakly acyclic             11
safe                        2
stratified                  9
safely restricted           3
inductively restricted      0
none                        5
implication violations: 0
"""

MONITOR_DEPTHS_4 = """\
 k steps chain       cyclic   watch k watch k-1    guarantee
 2     2     1         <= 1 terminated   aborted         None
 3     3     2         <= 2 terminated   aborted         None
 4     4     3         <= 3 terminated   aborted         None
"""


def run_script(name, *args):
    path = [os.path.join(ROOT, "src"), ROOT]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name)]
                          + list(args), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_ladder_survey():
    assert run_script("ladder_survey.py", "--sets", "30") == LADDER_SURVEY_30


def test_monitor_depths():
    assert run_script("monitor_depths.py", "--kmax", "4") == MONITOR_DEPTHS_4


def test_chase_rate():
    # rates vary from run to run; the shape of the table and the step
    # count, n(n+1)/2 + 2n - 1, do not
    src = os.path.join(ROOT, "src")
    out = run_script("chase_rate.py", "--n", "4", "--rounds", "2", src, src)
    lines = out.splitlines()
    assert lines[0] == "chase-tc rules, order det, seed 1, 2 rounds; steps/s"
    assert lines[1].split() == ["n", "steps", "src", "median", "q1", "q3",
                                "ratio", "write_ms", "w_ratio"]
    rows = [line.split() for line in lines[2:]]
    assert [row[:3] for row in rows] == [["4", "17", src]] * 2
    assert rows[0][6] == rows[0][-1] == "1.00"
    for row in rows:
        median, q1, q3 = map(float, row[3:6])
        assert 0 < q1 <= median <= q3
        assert float(row[7]) > 0


def test_chase_rate_stops_on_other_text(tmp_path):
    # a tree whose reports write one more space must not be timed against
    # this one
    import shutil
    other = tmp_path / "src"
    shutil.copytree(os.path.join(ROOT, "src"), other,
                    ignore=shutil.ignore_patterns("__pycache__"))
    reports = other / "chaseterm" / "reports.py"
    reports.write_text(reports.read_text() + "\n_to_json = to_json\n"
                       "def to_json(payload):\n    return _to_json(payload) + ' '\n")
    path = [os.path.join(ROOT, "src"), ROOT]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "chase_rate.py"),
         "--n", "3", "--rounds", "1", os.path.join(ROOT, "src"), str(other)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert proc.returncode != 0
    assert f"n=3: {other} wrote JSON text with SHA-256" in proc.stderr
