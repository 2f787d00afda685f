"""The paper's contribution: TCP-TRIM and its analytical model.

* :class:`~repro.core.trim.TrimSource` — the TCP-TRIM sender
  (Algorithms 1 and 2).
* :mod:`~repro.core.kguide` — the K-threshold guideline, Eqs. (4)–(22).
* :class:`~repro.core.model.SteadyStateModel` — the round-based fluid
  model behind the guideline.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core import kguide as kguide
    from repro.core.kguide import k_threshold as k_threshold
    from repro.core.model import SteadyStateModel as SteadyStateModel
    from repro.core.model import SteadyStateTrace as SteadyStateTrace
    from repro.core.trim import TrimSource as TrimSource

_lazy_exports(__name__, {
    "kguide": "repro.core.kguide",
    "k_threshold": "repro.core.kguide",
    "SteadyStateModel": "repro.core.model",
    "SteadyStateTrace": "repro.core.model",
    "TrimSource": "repro.core.trim",
})
