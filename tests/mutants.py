"""Mutants of the code the oracles guard: each one must fail its tests.

Run from anywhere:

    python tests/mutants.py          # the whole table
    python tests/mutants.py NAME...  # the named rows only

A row holds a mutant's name, its file, the exact old text, the new text
and the test selection that must catch it. For each row the script
copies ``src/``, ``tests/``, ``configs/`` and ``pyproject.toml`` into a
temporary directory, replaces the old text there (the checkout is never
edited) and runs ``python -m pytest -x -q`` on the selection, with the
copy's ``src`` first on the path and the derandomized ``ci`` hypothesis
profile. A mutant is killed when a selected test fails (pytest's exit
status 1). One whose tests pass is a survivor; any other status, such as
a collection error or an empty selection, is an error. Each selection
first runs on an unedited copy and must pass there. The script exits 1,
naming them, if a selection fails unedited or a mutant survives or errs.
Two runs go at a time.

``tests/test_mutants.py`` checks that each old text occurs exactly once
in its file, so a refactor that moves the code fails there instead of
leaving a mutant that edits nothing.
"""
import collections
import concurrent.futures
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "configs", "pyproject.toml")

Mutant = collections.namedtuple("Mutant", "name path old new selection")

MUTANTS = (
    Mutant(
        "scan fires on a tie with the threshold",
        "src/leocp/kernels.py",
        "(dist.min(axis=1) < delta * dist[pick, current])",
        "(dist.min(axis=1) <= delta * dist[pick, current])",
        ["tests/test_assignment.py", "-k", "tick_oracle"],
    ),
    Mutant(
        "scan's nearest controller ties to the highest index",
        "src/leocp/kernels.py",
        "best = dist.argmin(axis=1)",
        "best = dist.shape[1] - 1 - dist[:, ::-1].argmin(axis=1)",
        ["tests/test_assignment.py", "-k", "tick_oracle"],
    ),
    Mutant(
        "scan's switches left in step order",
        "src/leocp/kernels.py",
        'order = np.argsort(row, kind="stable")',
        "order = np.arange(len(row))",
        ["tests/test_assignment.py", "-k", "tick_oracle or per_satellite"],
    ),
    Mutant(
        "switch intervals' slack subtracted",
        "src/leocp/kernels.py",
        "below = others < delta * d + _SLACK * scale",
        "below = others < delta * d - _SLACK * scale",
        ["tests/test_assignment.py", "-k", "pruned_scan"],
    ),
    Mutant(
        "_lerp's slope by a reciprocal",
        "src/leocp/kernels.py",
        "slope = (f1 - f0) / (x1 - x0)",
        "slope = (f1 - f0) * (1.0 / (x1 - x0))",
        ["tests/test_assignment.py", "-k", "lerp"],
    ),
    Mutant(
        "schedule.csv source is the first switch's target",
        "src/leocp/cli.py",
        "source[first] = schedules.initial[schedules.sat[first]]",
        "source[first] = schedules.target[first]",
        ["tests/test_golden.py", "-k", "desk_all"],
    ),
    Mutant(
        "schedule.csv times to two decimals",
        "src/leocp/cli.py",
        r'fh.writelines("%d,%.3f,%d,%d\r\n"',
        r'fh.writelines("%d,%.2f,%d,%d\r\n"',
        ["tests/test_golden.py", "-k", "desk_all"],
    ),
    Mutant(
        "unknown node named before the unknown controller",
        "src/leocp/protocol.py",
        "if gs[i] not in self.controllers:",
        "if sats[i] in self.satellites:",
        ["tests/test_replay.py", "-k", "unknown_id"],
    ),
    Mutant(
        "station legs gathered out of order",
        "src/leocp/protocol.py",
        'self._checked(ev, ms[at], ("gs", a), ("gs", b))',
        'self._checked(ev, ms[np.sort(at)], ("gs", a), ("gs", b))',
        ["tests/test_replay.py", "-k", "station_legs"],
    ),
    Mutant(
        "a station pair and its reverse share a key",
        "src/leocp/protocol.py",
        "key = np.searchsorted(ids, a) * len(ids) + np.searchsorted(ids, b)",
        "key = np.searchsorted(ids, a) + np.searchsorted(ids, b)",
        ["tests/test_replay.py", "-k", "station_legs"],
    ),
    Mutant(
        "report rank: a tick at the event's time fires after a pusher of its rank",
        "src/leocp/protocol.py",
        "(pusher_rank >= k)",
        "(pusher_rank > k)",
        ["tests/test_replay.py", "-k", "rank_events"],
    ),
    Mutant(
        "nearest snapshot: a tie goes to the later one",
        "src/leocp/topology.py",
        "ts - times[lo] <= times[hi] - ts",
        "ts - times[lo] < times[hi] - ts",
        ["tests/test_topology.py", "-k", "nearest_field"],
    ),
)


def pytest_in_copy(selection, mutant=None):
    """pytest's exit status and last lines on ``selection``, run in a copy
    of the checkout with ``mutant``'s edit applied, if any."""
    with tempfile.TemporaryDirectory(prefix="leocp-mutant-") as work:
        for name in COPIED:
            source, target = os.path.join(ROOT, name), os.path.join(work, name)
            if os.path.isdir(source):
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, target)
        if mutant is not None:
            path = os.path.join(work, mutant.path)
            with open(path) as fh:
                text = fh.read()
            if text.count(mutant.old) != 1:
                return None, f"the old text occurs {text.count(mutant.old)} times"
            with open(path, "w") as fh:
                fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-profile=ci", *selection],
            cwd=work, env=env, capture_output=True, text=True,
        )
    return done.returncode, "\n".join(done.stdout.splitlines()[-3:])


def main(names):
    rows = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in rows}
    if unknown:
        print(f"no mutant called {sorted(unknown)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    selections = sorted({tuple(m.selection) for m in rows})
    bad = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        # each selection must pass on the unedited copy, or a kill means nothing
        for selection, (code, tail) in zip(selections, pool.map(pytest_in_copy, selections)):
            if code != 0:
                bad.append(f"the unedited selection {' '.join(selection)}")
                print(f"   error  unedited {' '.join(selection)}: pytest exit {code}\n{tail}")
        if not bad:
            for mutant, (code, tail) in zip(rows, pool.map(lambda m: pytest_in_copy(m.selection, m), rows)):
                outcome = {0: "survived", 1: "killed"}.get(code, "error")
                print(f"{outcome:>8}  {mutant.name}")
                if outcome != "killed":
                    bad.append(mutant.name)
                    print("          " + tail.replace("\n", "\n          "))
    print(f"{len(rows) - len(bad)} of {len(rows)} mutants killed in {time.perf_counter() - start:.0f} s")
    for name in bad:
        print(f"NOT KILLED: {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
