"""Size guards on the solver and cotree modules.

CPython's compiler holds a module's tokens in a buffer that doubles as it
grows, and a ``pairdom solve`` process peaks while compiling ``solver.py``.
On CPython 3.11 that peak steps up by about 0.5 MB once the module holds
more than 8192 tokens (comments and blank lines excluded), which moves the
CLI's peak memory by about 2.5%.  Code that the solve path does not run
belongs elsewhere, as the inspection helpers in ``pairdom.diagnostics`` do.
``pairdom verify --cotree`` peaks while compiling ``cotree.py`` in the same
way: on perfbench's CLI instances its peak RSS read 15.3 MB with the module
at 3822 tokens and 15.5 MB with it padded to 4226, past the step of 4096.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

import pairdom

PACKAGE = Path(pairdom.__file__).resolve().parent
SOLVER = PACKAGE / "solver.py"
TOKEN_STEP = 8192
COTREE_TOKEN_STEP = 4096
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def code_tokens(path: Path) -> int:
    """Tokens of the file, without comments, blank lines or the encoding."""
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in UNCOUNTED)


def test_solver_stays_below_the_token_step():
    count = code_tokens(SOLVER)
    assert count < TOKEN_STEP, f"solver.py holds {count} tokens"


def test_cotree_stays_below_its_token_step():
    count = code_tokens(PACKAGE / "cotree.py")
    assert count < COTREE_TOKEN_STEP, f"cotree.py holds {count} tokens"
