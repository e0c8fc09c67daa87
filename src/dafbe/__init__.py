"""dafbe: exact MAP / weighted-CSP solving by bucket elimination over
automaton-compressed factors.

A factor is stored as its sorted distinct values and one minimal leveled
automaton shared by all of them, whose terminals carry the value each
string maps to; combine and project then run on automata instead of
dense tables, which pays off whenever tables repeat values a lot.
"""

from ._backend import BACKEND
from .automata import Dafsa, Nfa
from .factor import DafsaFactor, SparseFactor, TabularFactor, ValueKeySet
from .model import GraphicalModel, Task, bucket_elimination, min_fill_ordering

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Dafsa",
    "Nfa",
    "DafsaFactor",
    "SparseFactor",
    "TabularFactor",
    "ValueKeySet",
    "GraphicalModel",
    "Task",
    "bucket_elimination",
    "min_fill_ordering",
    "__version__",
]
