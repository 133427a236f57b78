"""Database cracking: incremental index refinement during selections.

Database cracking (Idreos, Kersten, Manegold; CIDR 2007) treats every query
as advice on how data should be stored.  The first selection on a column
copies it into a *cracker column*; every subsequent selection partially
reorganises (cracks) that copy so all values qualifying for the query's
range end up contiguous.  A *cracker index* records the piece boundaries
introduced so far, so later queries only touch the piece(s) their bounds
fall into.

Modules
-------
``cracker_index``
    The piece-boundary bookkeeping structure (an ordered map from key values
    to array positions).
``crack_engine``
    The physical crack-in-two / crack-in-three kernels and the ripple
    insertion/deletion kernels.
``cracked_column``
    :class:`CrackedColumn`: cracker column + cracker index + select operator
    + pending insert/delete queues merged adaptively during query
    processing.
``stochastic``
    Stochastic cracking (random auxiliary cuts) for robustness against
    adversarial query patterns.
``updates``
    ``UpdatableCrackedColumn``, the historical name of :class:`CrackedColumn`
    with its copy made up front.
``partial``
    :class:`PartialCrackedColumn`: cracking under a storage budget, with
    on-demand materialisation and eviction of value-range fragments.
``sideways``
    :class:`SidewaysCracker`: cracker maps keeping multiple columns aligned
    for multi-column selections and efficient tuple reconstruction.
"""

from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.cracker_index import CrackerIndex, Piece
from repro.core.cracking.partial import PartialCrackedColumn
from repro.core.cracking.sideways import SidewaysCracker
from repro.core.cracking.stochastic import StochasticCrackedColumn
from repro.core.cracking.updates import UpdatableCrackedColumn

__all__ = [
    "CrackedColumn",
    "CrackerIndex",
    "Piece",
    "StochasticCrackedColumn",
    "UpdatableCrackedColumn",
    "PartialCrackedColumn",
    "SidewaysCracker",
]
