"""The calibration: a fixed piece of pure-Python work that shares no code
with the package, timed around the samples to read the machine's speed.

The shared machines the benchmark runs on change speed by up to 1.7x in
phases of a fraction of a second to minutes, and such a phase slows this
work and the program nearly alike. `run.py` divides every sample by the
machine's speed at the time, read from the calibrations just before and
just after it, so that a run does not measure which phases it fell into.
A change to the program leaves the calibration as it is.

The work is of the program's kind, without its code: text is parsed and
formatted, and a small expression tree is evaluated over sets of atoms.
Of the calibrations tried, this one's scaled samples spread among the
least across runs (see README.md).
"""

from __future__ import annotations

import io
import json
import re
from time import perf_counter

# The calibration's typical time on the machine the benchmark was tuned on
# (2-core shared Intel Xeon under KVM, Python 3.11.7). Scaled samples are
# in that machine's seconds at that speed.
CALIBRATION_S = 0.0085

_DOC = {
    "conditions": {f"c{i}": f"x{i} && !(y{i} || z)" for i in range(20)},
    "requirements": [{"name": f"R{i}", "pattern": {"type": "response", "p": f"c{i}", "s": "c1"}} for i in range(20)],
}
_TOKEN = re.compile(r"\s*(&&|\|\||!|\(|\)|[A-Za-z_][A-Za-z0-9_]*)")


class _Expr:
    __slots__ = ("op", "args")

    def __init__(self, op: str, args):
        self.op = op
        self.args = args

    def holds(self, atoms: frozenset) -> bool:
        if self.op == "atom":
            return self.args in atoms
        if self.op == "not":
            return not self.args[0].holds(atoms)
        if self.op == "and":
            return all(arg.holds(atoms) for arg in self.args)
        return any(arg.holds(atoms) for arg in self.args)


# p && !(q || r)
_EXPR = _Expr("and", [_Expr("atom", "p"), _Expr("not", [_Expr("or", [_Expr("atom", "q"), _Expr("atom", "r")])])])
_STATES = [frozenset(a for bit, a in enumerate("pqrs") if i >> bit & 1) for i in range(16)]


def calibrate() -> float:
    """Seconds the calibration work takes now, about 8 ms."""
    started = perf_counter()
    out = io.StringIO()
    for _ in range(6):
        doc = json.loads(json.dumps(_DOC))
        for name, text in doc["conditions"].items():
            tokens = _TOKEN.findall(text)
            out.write(f"{name}: {' '.join(tokens)} ({len(tokens)})\n")
        for req in doc["requirements"]:
            out.write("| %s | %s |\n" % (req["name"], req["pattern"]["type"]))
    held = sum(_EXPR.holds(state) for _ in range(250) for state in _STATES)
    if held != 250 * 2 or not out.getvalue():
        raise AssertionError("the calibration work went wrong")
    return perf_counter() - started
