#!/usr/bin/env python3
"""Count the Python bytecodes and calls one experiment point executes.

Runs one ``ExperimentContext(ExperimentSettings.quick())`` point under
``sys.settrace`` with ``f_trace_opcodes`` enabled, so every executed
bytecode instruction is counted, and reports the totals per consumed trace
access (warm-up plus measured region) together with a per-function table.
Unlike a timer, the counts are deterministic for a given Python version:
two runs of the same point print the same numbers on any machine, which is
what makes them usable to size and rank hot-path work.

Usage::

    PYTHONPATH=src python tools/count_bytecodes.py                 # facesim/c3d
    PYTHONPATH=src python tools/count_bytecodes.py --protocol baseline --top 25

Tracing every opcode slows the point down by roughly two orders of
magnitude: a quick facesim point takes about a minute on one core of a
2-vCPU x86-64 virtual machine.  Stdlib only.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Code objects of comprehensions and generator expressions.  Python 3.12
#: inlines comprehensions into their enclosing function, so they are not
#: counted as calls (their bytecodes still are, on the enclosing line).
COMPREHENSION_NAMES = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})


def _src_root() -> Path:
    return Path(__file__).resolve().parents[1] / "src"


def count_point(workload: str, protocol: str) -> Tuple[int, Dict, Dict]:
    """Run one quick point traced; returns ``(consumed, bytecodes, calls)``.

    ``bytecodes`` and ``calls`` map a code object to its executed-opcode
    count and its call count.
    """
    from repro.experiments.common import ExperimentContext, ExperimentSettings

    settings = ExperimentSettings.quick()
    context = ExperimentContext(settings)
    opcodes: Dict = defaultdict(int)
    calls: Dict = defaultdict(int)

    def local(frame, event, _arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return local

    def global_trace(frame, event, _arg):
        # Generator/coroutine resumptions also arrive as "call" events.
        code = frame.f_code
        if code.co_name not in COMPREHENSION_NAMES:
            calls[code] += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(global_trace)
    try:
        record = context.run(workload, protocol)
    finally:
        sys.settrace(None)
    threads = min(context.make_workload(workload).num_threads, settings.total_cores)
    consumed = record.result.accesses_executed + settings.warmup_accesses_per_thread * threads
    return consumed, dict(opcodes), dict(calls)


def _label(code) -> str:
    filename = code.co_filename
    src = str(_src_root())
    if filename.startswith(src):
        filename = filename[len(src) + 1:]
    else:
        filename = Path(filename).name
    name = getattr(code, "co_qualname", code.co_name)
    return f"{filename}:{code.co_firstlineno} {name}"


def report(consumed: int, opcodes: Dict, calls: Dict, top: int) -> List[str]:
    """Human-readable summary lines of one counted point."""
    total_ops = sum(opcodes.values())
    total_calls = sum(calls.values())
    lines = [
        f"consumed accesses      {consumed:>12,}",
        f"bytecodes per access   {total_ops / consumed:>12.1f}",
        f"Python calls per access{total_calls / consumed:>12.2f}",
        "",
        f"{'bytecodes/acc':>13} {'calls/acc':>9}  function",
    ]
    ranked = sorted(opcodes.items(), key=lambda item: item[1], reverse=True)
    for code, ops in ranked[:top]:
        lines.append(
            f"{ops / consumed:>13.1f} {calls.get(code, 0) / consumed:>9.2f}  {_label(code)}"
        )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="facesim")
    parser.add_argument("--protocol", default="c3d")
    parser.add_argument("--top", type=int, default=20,
                        help="functions to list in the per-function table")
    args = parser.parse_args(argv)
    consumed, opcodes, calls = count_point(args.workload, args.protocol)
    print(f"{args.workload}/{args.protocol} at ExperimentSettings.quick(), "
          f"Python {sys.version.split()[0]}")
    print("\n".join(report(consumed, opcodes, calls, args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
