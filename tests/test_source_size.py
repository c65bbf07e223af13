"""Size guard on the solver module.

CPython's compiler holds a module's tokens in a buffer that doubles as it
grows, and a ``pairdom solve`` process peaks while compiling ``solver.py``.
On CPython 3.11 that peak steps up by about 0.5 MB once the module holds
more than 8192 tokens (comments and blank lines excluded), which moves the
CLI's peak memory by about 2.5%.  Code that the solve path does not run
belongs elsewhere, as the inspection helpers in ``pairdom.diagnostics`` do.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

import pairdom

SOLVER = Path(pairdom.__file__).resolve().parent / "solver.py"
TOKEN_STEP = 8192
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def code_tokens(path: Path) -> int:
    """Tokens of the file, without comments, blank lines or the encoding."""
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in UNCOUNTED)


def test_solver_stays_below_the_token_step():
    count = code_tokens(SOLVER)
    assert count < TOKEN_STEP, f"solver.py holds {count} tokens"
