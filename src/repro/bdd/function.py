"""User-facing BDD handle with operator overloading.

A :class:`Function` pins its node in the manager (external reference
count) for as long as the wrapper is alive, so manager garbage collection
never frees user-visible results.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, Optional, Tuple,
                    Union)

from .cache import CacheConfig
from .manager import FALSE, TRUE, BddManager

__all__ = ["Function", "Bdd", "default_bdd"]


def default_bdd() -> "Bdd":
    """Manager configured like the paper's experiments: dynamic sifting on.

    The checks create one of these when the caller does not supply a
    manager; the reorder threshold is tuned for pure-Python throughput.
    """
    return Bdd(auto_reorder=True, initial_reorder_threshold=30_000)


class Function:
    """A Boolean function handle bound to a :class:`BddManager`.

    Supports ``&``, ``|``, ``^``, ``~``, ``-`` (difference), comparison
    with ``==`` (semantic equality — same canonical node), and the
    quantifier / composition helpers used throughout the checker.
    """

    __slots__ = ("bdd", "node", "__weakref__")

    def __init__(self, bdd: "Bdd", node: int) -> None:
        self.bdd = bdd
        self.node = node
        bdd.manager.incref(node)

    def __del__(self) -> None:
        try:
            self.bdd.manager.decref(self.node)
        except Exception:  # interpreter shutdown; nothing to release
            pass

    # -- factory ------------------------------------------------------

    def _wrap(self, node: int) -> "Function":
        return Function(self.bdd, node)

    def _node_of(self, other: Union["Function", bool]) -> int:
        if isinstance(other, Function):
            if other.bdd is not self.bdd:
                raise ValueError("mixing functions from different managers")
            return other.node
        if other is True:
            return TRUE
        if other is False:
            return FALSE
        raise TypeError("expected Function or bool, got %r" % (other,))

    # -- boolean structure --------------------------------------------

    @property
    def is_true(self) -> bool:
        """True iff this is the constant-1 function."""
        return self.node == TRUE

    @property
    def is_false(self) -> bool:
        """True iff this is the constant-0 function."""
        return self.node == FALSE

    @property
    def is_constant(self) -> bool:
        """True for either constant function."""
        return self.node <= TRUE

    def __bool__(self) -> bool:
        raise TypeError(
            "Function truth value is ambiguous; use .is_true / .is_false"
        )

    # -- operators ------------------------------------------------------

    def __and__(self, other: Union["Function", bool]) -> "Function":
        m = self.bdd.manager
        return self._wrap(m.apply_and(self.node, self._node_of(other)))

    __rand__ = __and__

    def __or__(self, other: Union["Function", bool]) -> "Function":
        m = self.bdd.manager
        return self._wrap(m.apply_or(self.node, self._node_of(other)))

    __ror__ = __or__

    def __xor__(self, other: Union["Function", bool]) -> "Function":
        m = self.bdd.manager
        return self._wrap(m.apply_xor(self.node, self._node_of(other)))

    __rxor__ = __xor__

    def __invert__(self) -> "Function":
        return self._wrap(self.bdd.manager.apply_not(self.node))

    def __sub__(self, other: Union["Function", bool]) -> "Function":
        """Set difference ``self ∧ ¬other``."""
        m = self.bdd.manager
        return self._wrap(
            m.apply_and(self.node, m.apply_not(self._node_of(other))))

    def implies(self, other: Union["Function", bool]) -> "Function":
        """Implication ``self → other``."""
        m = self.bdd.manager
        return self._wrap(m.apply_implies(self.node, self._node_of(other)))

    def equiv(self, other: Union["Function", bool]) -> "Function":
        """Equivalence ``self ↔ other``."""
        m = self.bdd.manager
        return self._wrap(m.apply_xnor(self.node, self._node_of(other)))

    def ite(self, then_: "Function", else_: "Function") -> "Function":
        """``if self then then_ else else_``."""
        m = self.bdd.manager
        return self._wrap(m.apply_ite(self.node, self._node_of(then_),
                                      self._node_of(else_)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, bool):
            return self.node == (TRUE if other else FALSE)
        if not isinstance(other, Function):
            return NotImplemented
        return self.bdd is other.bdd and self.node == other.node

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash((id(self.bdd), self.node))

    # -- quantifiers / substitution -------------------------------------

    def exists(self, variables: Iterable[Union[str, int]]) -> "Function":
        """``∃ variables . self``."""
        return self._wrap(self.bdd.manager.exists(variables, self.node))

    def forall(self, variables: Iterable[Union[str, int]]) -> "Function":
        """``∀ variables . self``."""
        return self._wrap(self.bdd.manager.forall(variables, self.node))

    def and_exists(self, other: "Function",
                   variables: Iterable[Union[str, int]]) -> "Function":
        """``∃ variables . self ∧ other`` (relational product)."""
        return self._wrap(self.bdd.manager.and_exists(
            variables, self.node, self._node_of(other)))

    def restrict(self,
                 assignment: Dict[Union[str, int], bool]) -> "Function":
        """Cofactor under a partial assignment."""
        return self._wrap(self.bdd.manager.restrict(self.node, assignment))

    def compose(self, substitution: Dict[Union[str, int], "Function"])\
            -> "Function":
        """Simultaneous substitution of functions for variables."""
        subst = {v: self._node_of(g) for v, g in substitution.items()}
        return self._wrap(self.bdd.manager.compose(self.node, subst))

    # -- inspection ------------------------------------------------------

    def evaluate(self, assignment: Dict[Union[str, int], bool]) -> bool:
        """Value of the function under a (total-on-support) assignment."""
        return self.bdd.manager.evaluate(self.node, assignment)

    __call__ = evaluate

    def sat_one(self) -> Optional[Dict[str, bool]]:
        """One satisfying assignment (``None`` if unsatisfiable)."""
        return self.bdd.manager.sat_one(self.node)

    def sat_count(self, nvars: Optional[int] = None) -> int:
        """Number of satisfying assignments."""
        return self.bdd.manager.sat_count(self.node, nvars)

    def sat_iter(self) -> Iterator[Dict[str, bool]]:
        """All satisfying cubes as partial assignments."""
        return self.bdd.manager.sat_iter(self.node)

    def support(self) -> List[str]:
        """Variables the function depends on (top-down order)."""
        return self.bdd.manager.support(self.node)

    def size(self) -> int:
        """Node count of this BDD, terminals included."""
        return self.bdd.manager.size(self.node)

    def profile(self) -> Tuple[int, List[str]]:
        """``(self.size(), self.support())`` from one DAG walk."""
        return self.bdd.manager.profile(self.node)

    def __repr__(self) -> str:
        if self.node == TRUE:
            return "<Function TRUE>"
        if self.node == FALSE:
            return "<Function FALSE>"
        return "<Function node=%d size=%d support=%s>" % (
            self.node, self.size(), ",".join(self.support()))


class Bdd:
    """High-level BDD interface: declares variables, hands out Functions.

    This is the object the rest of the library works with; the low-level
    :class:`BddManager` stays an implementation detail.
    """

    #: Manager implementation to instantiate; a subclass (the recursive
    #: test oracle in ``tests/bdd/legacy.py``) overrides this to swap
    #: kernels without touching the Function layer.
    _manager_class = BddManager

    def __init__(self, auto_reorder: bool = False,
                 initial_reorder_threshold: int = 50_000,
                 debug_checks: "Optional[bool]" = None,
                 cache_config: "Optional[CacheConfig]" = None) -> None:
        self.manager = self._manager_class(
            auto_reorder=auto_reorder,
            initial_reorder_threshold=initial_reorder_threshold,
            debug_checks=debug_checks,
            cache_config=cache_config)

    # -- constants -----------------------------------------------------

    @property
    def true(self) -> Function:
        """Constant-1 function."""
        return Function(self, TRUE)

    @property
    def false(self) -> Function:
        """Constant-0 function."""
        return Function(self, FALSE)

    def constant(self, value: bool) -> Function:
        """Constant function from a Python bool."""
        return self.true if value else self.false

    # -- variables -----------------------------------------------------

    def add_var(self, name: Optional[str] = None) -> Function:
        """Declare a fresh variable and return its projection function."""
        var = self.manager.add_var(name)
        return Function(self, self.manager.var_node(var))

    def add_vars(self, names: Iterable[str]) -> List[Function]:
        """Declare several variables at once."""
        return [self.add_var(n) for n in names]

    def var(self, name: Union[str, int]) -> Function:
        """Projection function of an existing variable."""
        return Function(self, self.manager.var_node(name))

    def has_var(self, name: str) -> bool:
        """Whether a variable of this name was declared."""
        return name in self.manager._name_to_var

    @property
    def var_order(self) -> List[str]:
        """Current variable order, top to bottom."""
        return self.manager.var_order

    @property
    def num_vars(self) -> int:
        """Number of declared variables."""
        return self.manager.num_vars

    # -- bulk helpers ----------------------------------------------------

    def cube(self, assignment: Dict[Union[str, int], bool]) -> Function:
        """Conjunction of literals from a partial assignment."""
        acc = self.true
        for name, val in assignment.items():
            lit = self.var(name)
            acc = acc & (lit if val else ~lit)
        return acc

    def conj(self, functions: Iterable[Function]) -> Function:
        """Conjunction of many functions (balanced reduction)."""
        items = list(functions)
        if not items:
            return self.true
        while len(items) > 1:
            items = [items[i] & items[i + 1] if i + 1 < len(items)
                     else items[i] for i in range(0, len(items), 2)]
        return items[0]

    def disj(self, functions: Iterable[Function]) -> Function:
        """Disjunction of many functions (balanced reduction)."""
        items = list(functions)
        if not items:
            return self.false
        while len(items) > 1:
            items = [items[i] | items[i + 1] if i + 1 < len(items)
                     else items[i] for i in range(0, len(items), 2)]
        return items[0]

    # -- maintenance -----------------------------------------------------

    def set_budget(self, budget) -> None:
        """Attach a :class:`repro.resilience.budget.Budget` (or ``None``).

        Overruns raise ``BudgetExceededError`` from inside the symbolic
        operations; the manager stays consistent and usable.
        """
        self.manager.set_budget(budget)

    @property
    def budget(self):
        """The attached resource budget, if any."""
        return self.manager.budget

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer` (or ``None`` to detach).

        The manager then emits GC/budget-poll instants and one span per
        reordering pass into the tracer; see ``docs/observability.md``.
        """
        self.manager.set_tracer(tracer)

    @property
    def tracer(self):
        """The attached observability tracer, if any."""
        return self.manager._tracer

    def collect_garbage(self) -> int:
        """Free nodes not reachable from any live Function."""
        return self.manager.collect_garbage()

    def cache_stats(self) -> Dict:
        """Computed-table traffic (see :meth:`BddManager.cache_stats`)."""
        return self.manager.cache_stats()

    def clear_cache(self) -> None:
        """Drop every computed-table entry."""
        self.manager.clear_cache()

    def reorder(self) -> None:
        """Run one full sifting pass over all variables."""
        from .reorder import sift

        self.manager.collect_garbage()
        sift(self.manager)
        self.manager.n_reorderings += 1

    def __len__(self) -> int:
        """Live node count in the shared store."""
        return len(self.manager)

    @property
    def peak_live_nodes(self) -> int:
        """High-water mark of the live node count."""
        return self.manager.peak_live_nodes

    def __repr__(self) -> str:
        return "<Bdd vars=%d nodes=%d>" % (self.num_vars, len(self))
