"""Line and branch report of tier-1 over `src/` (CPython 3.12+; standard
library and pytest only). It is a report, not a gate: it exits with pytest's
code whatever it finds.

Run from the repository root:

    python3 tools/coverage.py

Tier-1 runs in this process under `sys.monitoring`, registered before pytest
imports anything of the package, so import-time lines count too:

- LINE events record each line of `src/unitcert/*.py` that runs. A callback
  returns DISABLE after a location's first event, so a hot line costs one
  call in all.
- BRANCH events record, per branch site of `src/`, the destinations it took.
  A site is disabled only once both of its destinations have been seen:
  DISABLE switches off the whole instruction, and after its first event
  every site would read as one-sided. Outside `src/` both events are
  disabled at once.

The report prints, per module, the lines that never ran and the branch sites
that ran but went one way only. Sites whose branch follows an `except`
clause's type match are listed apart: their other side is an exception of
another type, which is not a finding. The last line gives the totals. Only
this process is counted: CLI commands that tests run as child processes
are not.
"""

from __future__ import annotations

import dis
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "unitcert"
PYTEST = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def _in_package(code) -> bool:
    return code.co_filename.startswith(str(PACKAGE) + os.sep)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _line_of(code, offset: int) -> int | None:
    return next((line for start, end, line in code.co_lines() if start <= offset < end), None)


def _column_of(code, offset: int) -> int:
    """The 1-based column where the instruction at `offset` starts."""
    positions = list(code.co_positions())
    column = positions[offset // 2][2]
    return 0 if column is None else column + 1


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, such as 83-87."""
    runs: list[list[int]] = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


class Monitor:
    """The lines run and the branch destinations taken in `src/`."""

    def __init__(self):
        self.lines: set[tuple[str, int]] = set()
        self.branches: dict[tuple[object, int], set[int]] = {}

    def start(self) -> None:
        mon = sys.monitoring
        mon.use_tool_id(mon.COVERAGE_ID, "unitcert-coverage")
        mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, self._line)
        mon.register_callback(mon.COVERAGE_ID, mon.events.BRANCH, self._branch)
        mon.set_events(mon.COVERAGE_ID, mon.events.LINE | mon.events.BRANCH)

    def stop(self) -> None:
        mon = sys.monitoring
        mon.set_events(mon.COVERAGE_ID, 0)
        mon.free_tool_id(mon.COVERAGE_ID)

    def _line(self, code, line: int):
        if _in_package(code):
            self.lines.add((code.co_filename, line))
        return sys.monitoring.DISABLE

    def _branch(self, code, offset: int, destination: int):
        if not _in_package(code):
            return sys.monitoring.DISABLE
        taken = self.branches.setdefault((code, offset), set())
        taken.add(destination)
        return sys.monitoring.DISABLE if len(taken) > 1 else None

    def report(self) -> tuple[int, int, int, int]:
        """Print the per-module report; (unrun lines, branch sites reached,
        one-sided sites, of them except matches)."""
        one_sided: dict[str, list[tuple[int, int, int]]] = {}
        except_matches: dict[str, list[tuple[int, int, int]]] = {}
        for (code, offset), taken in self.branches.items():
            if len(taken) > 1:
                continue
            previous = None
            for ins in dis.get_instructions(code):
                if ins.offset == offset:
                    break
                previous = ins
            (destination,) = taken
            site = (_line_of(code, offset), _column_of(code, offset), _line_of(code, destination))
            kind = except_matches if previous is not None and previous.opname == "CHECK_EXC_MATCH" else one_sided
            kind.setdefault(code.co_filename, []).append(site)
        unrun_total = 0
        for path in sorted(PACKAGE.glob("*.py")):
            name, module = str(path), path.name
            code = compile(path.read_text(), name, "exec")
            executable = {line for c in _code_objects(code) for _, _, line in c.co_lines() if line}
            unrun = sorted(n for n in executable if (name, n) not in self.lines)
            unrun_total += len(unrun)
            sites, matches = sorted(one_sided.get(name, [])), sorted(except_matches.get(name, []))
            print(f"{module}: {len(executable)} lines, {len(unrun)} unrun; "
                  f"{len(sites)} one-sided branch sites, {len(matches)} except matches")
            if unrun:
                print(f"  unrun lines: {_ranges(unrun)}")
            for label, found in (("one-sided", sites), ("except match", matches)):
                for line, column, to in found:
                    print(f"  {label}: {module}:{line}:{column} -> line {to} only")
        one = sum(map(len, one_sided.values()))
        exc = sum(map(len, except_matches.values()))
        return unrun_total, len(self.branches), one + exc, exc


def main() -> int:
    if sys.version_info < (3, 12):
        print("tools/coverage.py needs sys.monitoring, CPython 3.12 or later", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    monitor = Monitor()
    monitor.start()
    try:
        import pytest

        code = int(pytest.main(PYTEST))
    finally:
        monitor.stop()
    unrun, reached, one_sided, matches = monitor.report()
    print(f"coverage on CPython {sys.version.split()[0]}: {unrun} unrun lines in src/, "
          f"{reached} branch sites reached, {one_sided} one-sided ({matches} of them except matches); "
          f"CLI child processes not counted; pytest exit {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
