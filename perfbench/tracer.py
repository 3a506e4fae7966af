"""Per-layer tracing of treerep from outside the package.

The tracer wraps the public functions listed in TARGETS, records one span
per call and aggregates the spans per name.  It changes no file under
`src/`: it rebinds wrappers in memory and restores the originals on exit.

Three details make the numbers trustworthy:

* Modules bind names with `from .operators import build_pair`, and the
  suite table `suites.SUITES` holds the suite functions by value.  Wrapping
  only `treerep.operators.build_pair` would miss those calls, so a
  function is rebound in every `treerep.*` module attribute and every
  module-level dict value that holds it.  Methods are rebound on their
  class, which all callers share.
* `treerep verify` runs its suites on a thread pool.  Each thread keeps
  its own span stack, so a span's self time (its duration minus the time
  of its child spans) only subtracts children from the same thread, and
  overlapping suites never produce negative or double-counted self time.
* Step translation delegates to edge inversion, so one generator's batch
  can call another's.  A generator batch called while another is open on
  the same thread is not a span of its own: its calls, rows and time count
  for the outer generator, so each generator kind reports only its own
  applications.

A name that no longer exists in the package is reported as absent rather
than raising, so a later change may delete a traced function.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

SUITE_NAMES = (
    "measure_cocycle",
    "homomorphism",
    "prune_replay",
    "fixed_vector_transfer",
    "halftree_reach",
    "invariance_correspondence",
    "admissibility_table",
)

# (module, attribute path, traced name, counts input rows).  A class
# path names a method; "Class.__init__" is reported as construction.
TARGETS = [
    ("tree", "letter_matrix", "tree.letter_matrix", False),
    ("tree", "closed_neighborhood", "tree.closed_neighborhood", False),
    ("tree", "prefix_indices", "tree.prefix_indices", True),
    ("tree", "FiniteSubtree.__init__", "tree.FiniteSubtree", False),
    ("tree", "boundary_vertices", "tree.boundary_vertices", False),
    ("tree", "is_complete", "tree.is_complete", False),
    ("automorphism", "PortraitGen.batch", "automorphism.PortraitGen.batch", True),
    ("automorphism", "EdgeInversionGen.batch", "automorphism.EdgeInversionGen.batch", True),
    ("automorphism", "StepTranslationGen.batch", "automorphism.StepTranslationGen.batch", True),
    ("automorphism", "TreeAutomorphism.apply_batch", "automorphism.TreeAutomorphism.apply_batch", True),
    ("automorphism", "TreeAutomorphism.apply_vertex", "automorphism.TreeAutomorphism.apply_vertex", False),
    ("automorphism", "compose", "automorphism.compose", False),
    ("automorphism", "random_portrait", "automorphism.random_portrait", False),
    ("measure", "rn_cocycle", "measure.rn_cocycle", False),
    ("measure", "map_cell", "measure.map_cell", False),
    ("measure", "cell_measure", "measure.cell_measure", False),
    ("measure", "orbit_cells", "measure.orbit_cells", False),
    ("measure", "cell_index_ranges", "measure.cell_index_ranges", False),
    ("measure", "orbit_merge_under_pruning", "measure.orbit_merge_under_pruning", False),
    ("measure", "assert_partition", "measure.assert_partition", False),
    ("operators", "build_pair", "operators.build_pair", False),
    ("operators", "spectral_norm", "operators.spectral_norm", False),
    ("operators", "guard_spectrum", "operators.guard_spectrum", False),
    ("operators", "power", "operators.power", False),
    ("operators", "random_in_disc", "operators.random_in_disc", False),
    ("representation", "pi_apply", "representation.pi_apply", True),
    ("representation", "haar_average_fix", "representation.haar_average_fix", False),
    ("representation", "fixed_space_report", "representation.fixed_space_report", False),
    ("representation", "invariant_lift_check", "representation.invariant_lift_check", False),
    ("representation", "alpha_via_rep", "representation.alpha_via_rep", False),
    ("representation", "halftree_preimage", "representation.halftree_preimage", False),
    *[("suites", f"suite_{s}", f"suites.{s}", False) for s in SUITE_NAMES],
    ("suites", "run_all", "suites.run_all", False),
    ("cli", "run", "cli.run", False),
]

SUITE_SPANS = frozenset(f"suites.{s}" for s in SUITE_NAMES)
GEN_BATCHES = frozenset(
    f"automorphism.{g}.batch" for g in ("PortraitGen", "EdgeInversionGen", "StepTranslationGen")
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for _, _, name, rows in TARGETS:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        if rows:
            out.append((f"{name}.rows", "count"))
        if name == "suites.run_all":
            out.append(("suites.busy_s", "s"))
    out.append(("trace_overhead_ratio", "ratio"))
    return out


def _rows(obj) -> int:
    # every row-counted target takes its input second: prefix_indices(params,
    # letters, ...), gen.batch(letters, ...) after self, pi_apply(g, v, pair).
    # Letter matrices are arrays; step functions keep theirs in .values.
    return int(getattr(obj, "values", obj).shape[0])


class _ThreadState:
    __slots__ = ("stack", "stats", "in_gen")

    def __init__(self):
        self.stack: list[float] = []  # child time accumulated per open span
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, rows]
        self.in_gen = False  # a generator batch span is open


class Tracer:
    """Install with `with Tracer() as tr:`; read `tr.totals()` afterwards."""

    def __init__(self):
        self.absent: list[str] = []
        self.busy_s = 0.0  # summed suite span time
        self.suite_threads: set[int] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._undo: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, fn, name: str, rows: bool):
        suite = name in SUITE_SPANS
        gen = name in GEN_BATCHES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            if gen:
                if st.in_gen:
                    return fn(*args, **kwargs)
                st.in_gen = True
            st.stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                child = st.stack.pop()
                if st.stack:
                    st.stack[-1] += dur
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur - child
                if rows:
                    rec[2] += _rows(args[1])
                if gen:
                    st.in_gen = False
                if suite:
                    with self._lock:
                        self.busy_s += dur
                        self.suite_threads.add(threading.get_ident())

        return traced

    # -- installation ----------------------------------------------------------

    def _package_modules(self):
        return [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "treerep" or key.startswith("treerep."))
        ]

    def _rebind_function(self, orig, wrapper) -> None:
        for mod in self._package_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((setattr, mod, attr, orig))
                    setattr(mod, attr, wrapper)
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for key, item in list(val.items()):
                        if item is orig:
                            self._undo.append((dict.__setitem__, val, key, orig))
                            val[key] = wrapper

    def __enter__(self) -> "Tracer":
        for module, path, name, rows in TARGETS:
            try:
                mod = importlib.import_module(f"treerep.{module}")
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                orig = owner.__dict__[attr] if owner_name else getattr(mod, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(orig, name, rows)
            if owner_name:
                self._undo.append((setattr, owner, attr, orig))
                setattr(owner, attr, wrapper)
            else:
                self._rebind_function(orig, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for setter, container, key, orig in reversed(self._undo):
            setter(container, key, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, self_s, rows], summed over threads."""
        out: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, rec in st.stats.items():
                acc = out.setdefault(name, [0, 0.0, 0])
                for i in range(3):
                    acc[i] += rec[i]
        return out
