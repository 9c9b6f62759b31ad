"""Factor -> worker placement policies.

Algorithm 1 line 9: "Assign factors A_{0:L-1} and G_{1:L} to unique workers"
in a *round-robin* fashion.  §VI-C4 diagnoses the resulting load imbalance
(factor sizes vary by orders of magnitude, Table VI) and proposes
size-balanced placement as future work — we implement that too, as a
greedy longest-processing-time (LPT) heuristic on a cubic cost model, and
benchmark both (``bench_ablation_placement``).

Every placement is a KAISA-style *gradient-worker fraction*
(arXiv:2107.01739): each layer gets a **gradient-worker group** of
``max(1, round(f * P))`` ranks that hold the layer's eigendecompositions
and compute its preconditioned gradient locally; the remaining ranks
receive only the final preconditioned gradient via a group-rooted
broadcast.  ``f = 1`` is the comm-opt placement; ``f = 1/P`` is the
layer-wise placement of the K-FAC-lw baseline, where *both* factors of a
layer (and its gradient preconditioning) live on one worker — the scheme
of Osawa et al. [6] that the paper improves upon.  Intermediate values
trade per-rank eigenbasis memory against second-stage communication.
:func:`build_group_placement` constructs the groups and the within-group
factor assignment; :class:`GroupPlacement` carries the placement
metadata the preconditioner and the drivers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.comm.fusion import tri_len

__all__ = [
    "FactorMeta",
    "FactorUnits",
    "plan_units",
    "factor_block",
    "wire_elements",
    "second_order_shapes",
    "eig_cost",
    "round_robin_assignment",
    "greedy_balanced_assignment",
    "worker_costs",
    "grad_worker_count",
    "grad_worker_groups",
    "GroupPlacement",
    "build_group_placement",
]


@dataclass(frozen=True)
class FactorMeta:
    """Identity, size and structure of one Kronecker factor, or of one
    diagonal block of it.

    ``diagonal`` (declared by the layer handler's ``diagonal_A``) marks a
    factor held as its ``(dim,)`` diagonal: every consumer reads it from
    here instead of assuming a dense square.  ``block`` marks one diagonal
    block of a dense factor (``diag_blocks > 1``, see
    :func:`repro.approx.blocks.plan_block_bounds`): the block's index in
    its factor, occupying rows/cols ``[lo, hi)``, with ``dim = hi - lo``.
    Placement, wire and eig cost read only these fields, so a block is
    scheduled, shipped and balanced like a factor.

    Example
    -------
    >>> from repro.core.assignment import FactorMeta
    >>> meta = FactorMeta(layer="conv1", kind="A", dim=27)
    >>> meta.key, meta.n_elements
    ('conv1/A', 729)
    >>> FactorMeta("tok_embed", "A", 1024, diagonal=True).n_elements
    1024
    >>> blk = FactorMeta("conv1", "A", 14, block=1, lo=14)
    >>> blk.key, blk.hi, blk.factor_key
    ('conv1/A#1', 28, 'conv1/A')
    """

    layer: str  # owning layer name
    kind: str  # "A" or "G"
    dim: int  # square matrix (or block) dimension
    diagonal: bool = False  # exactly diagonal: held as its (dim,) diagonal
    block: int | None = None  # index of this diagonal block; None: whole factor
    lo: int = 0  # first row/col of the block in its factor

    @property
    def hi(self) -> int:
        """One past the last row/col this meta covers in its factor."""
        return self.lo + self.dim

    @property
    def factor_key(self) -> str:
        """Key of the whole factor this meta belongs to."""
        return f"{self.layer}/{self.kind}"

    @property
    def key(self) -> str:
        key = f"{self.layer}/{self.kind}"
        return key if self.block is None else f"{key}#{self.block}"

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the array held for it: ``(dim,)`` when diagonal."""
        return (self.dim,) if self.diagonal else (self.dim, self.dim)

    @property
    def n_elements(self) -> int:
        return self.dim if self.diagonal else self.dim * self.dim


def factor_block(factor: Any, meta: FactorMeta) -> Any:
    """What ``meta`` covers of ``factor``: a block's view, else all of it."""
    if meta.block is None:
        return factor
    return factor[meta.lo : meta.hi, meta.lo : meta.hi]


def wire_elements(meta: FactorMeta, symmetric: bool) -> int:
    """Elements one factor (or block) puts on the factor-allreduce wire."""
    if symmetric and not meta.diagonal:
        return tri_len(meta.dim)
    return meta.n_elements


def second_order_shapes(meta: FactorMeta, eigen: bool) -> tuple[tuple[int, ...], ...]:
    """Array shapes of one unit's second-order payload, in transport order.

    ``(Q, lam)`` on the eigen path, the damped inverse otherwise; a
    diagonal factor carries one ``(dim,)`` vector either way.  The world
    share, the group share and the elastic gather all unpack by this.

    Example
    -------
    >>> from repro.core.assignment import FactorMeta, second_order_shapes
    >>> second_order_shapes(FactorMeta("fc", "A", 4), eigen=True)
    ((4, 4), (4,))
    >>> second_order_shapes(FactorMeta("emb", "A", 4, diagonal=True), eigen=True)
    ((4,),)
    """
    return (meta.shape, (meta.dim,)) if eigen and not meta.diagonal else (meta.shape,)


def eig_cost(meta: FactorMeta) -> float:
    """Relative eigendecomposition cost: ``O(n^3)``, ``O(n)`` when diagonal."""
    return float(meta.dim) if meta.diagonal else float(meta.dim) ** 3


def round_robin_assignment(
    factors: Sequence[FactorMeta], n_workers: int
) -> dict[str, int]:
    """Paper placement: factor ``j`` (enumeration order) -> worker ``j % P``.

    Note both factors of one layer generally land on *different* workers —
    the "double the worker utilization" property of §IV-C.

    Example
    -------
    >>> from repro.core.assignment import FactorMeta, round_robin_assignment
    >>> metas = [FactorMeta("l0", "A", 4), FactorMeta("l1", "A", 4),
    ...          FactorMeta("l0", "G", 2)]
    >>> round_robin_assignment(metas, 2)
    {'l0/A': 0, 'l1/A': 1, 'l0/G': 0}
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return {meta.key: i % n_workers for i, meta in enumerate(factors)}


def greedy_balanced_assignment(
    factors: Sequence[FactorMeta],
    n_workers: int,
    cost_fn: Callable[[FactorMeta], float] = eig_cost,
) -> dict[str, int]:
    """LPT heuristic: sort by cost descending, give each to the least-loaded
    worker.  This is the §VI-C4 "placement policy that uses factor size as
    a heuristic for the eigen decomposition time".

    Example
    -------
    >>> from repro.core.assignment import FactorMeta, greedy_balanced_assignment
    >>> metas = [FactorMeta("big", "A", 100), FactorMeta("s1", "A", 10),
    ...          FactorMeta("s2", "A", 10)]
    >>> a = greedy_balanced_assignment(metas, 2)
    >>> a["big"+"/A"] != a["s1/A"] == a["s2/A"]   # small ones pack together
    True
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    loads = [0.0] * n_workers
    assignment: dict[str, int] = {}
    order = sorted(factors, key=cost_fn, reverse=True)
    for meta in order:
        worker = min(range(n_workers), key=loads.__getitem__)
        assignment[meta.key] = worker
        loads[worker] += cost_fn(meta)
    return assignment


def worker_costs(
    factors: Sequence[FactorMeta],
    assignment: dict[str, int],
    n_workers: int,
    cost_fn: Callable[[FactorMeta], float] = eig_cost,
) -> list[float]:
    """Aggregate assigned cost per worker (Table VI's imbalance metric)."""
    loads = [0.0] * n_workers
    for meta in factors:
        loads[assignment[meta.key]] += cost_fn(meta)
    return loads


# ----------------------------------------------------------------------
# KAISA-style gradient-worker groups (arXiv:2107.01739)
# ----------------------------------------------------------------------
def grad_worker_count(n_workers: int, frac: float) -> int:
    """Gradient-worker group size ``max(1, round(frac * P))``, clamped to P.

    Example
    -------
    >>> grad_worker_count(8, 0.5)
    4
    >>> grad_worker_count(8, 1 / 8)   # layer-wise endpoint
    1
    >>> grad_worker_count(8, 1.0)     # comm-opt endpoint
    8
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if not 0.0 < frac <= 1.0:
        raise ValueError(f"grad_worker_frac must be in (0, 1], got {frac}")
    return max(1, min(n_workers, round(frac * n_workers)))


def grad_worker_groups(
    layer_names: Sequence[str], n_workers: int, frac: float
) -> dict[str, tuple[int, ...]]:
    """Per-layer gradient-worker groups: contiguous rank windows.

    Layer ``i``'s group starts at its canonical owner ``i % P`` (so the
    first element is the group's broadcast root) and wraps around the
    ring.  With ``frac = 1/P`` every group is the singleton owner (the
    layer-wise placement); with ``frac = 1`` every group is the whole
    world (the comm-opt placement).

    Example
    -------
    >>> grad_worker_groups(["a", "b", "c"], 4, 0.5)
    {'a': (0, 1), 'b': (1, 2), 'c': (2, 3)}
    >>> grad_worker_groups(["a", "b"], 2, 0.5)   # f = 1/P: singletons
    {'a': (0,), 'b': (1,)}
    """
    g = grad_worker_count(n_workers, frac)
    if g == n_workers:
        # every rank is a gradient worker: one canonical world group (no
        # broadcast root needed), so factor assignment degenerates to the
        # exact global round-robin/greedy policies of the COMM_OPT path
        world = tuple(range(n_workers))
        return {name: world for name in layer_names}
    return {
        name: tuple((i + j) % n_workers for j in range(g))
        for i, name in enumerate(layer_names)
    }


@dataclass
class GroupPlacement:
    """Placement metadata for a gradient-worker fraction.

    Attributes
    ----------
    n_workers:
        World size P.
    group_size:
        Gradient workers per layer, ``max(1, round(frac * P))``.
    groups:
        layer name -> gradient-worker ranks (root first, ring order).
    assignment:
        factor key -> eigendecomposition worker (a member of the
        factor's layer group).

    Example
    -------
    >>> metas = [FactorMeta("a", "A", 4), FactorMeta("a", "G", 2)]
    >>> gp = build_group_placement(metas, n_workers=4, frac=0.5)
    >>> gp.group_size, gp.groups["a"], gp.root("a")
    (2, (0, 1), 0)
    >>> gp.is_grad_worker(1, "a"), gp.is_grad_worker(3, "a")
    (True, False)
    """

    n_workers: int
    group_size: int
    groups: dict[str, tuple[int, ...]] = field(default_factory=dict)
    assignment: dict[str, int] = field(default_factory=dict)

    def root(self, layer: str) -> int:
        """The layer's canonical owner — root of its grad broadcast."""
        return self.groups[layer][0]

    def is_grad_worker(self, rank: int, layer: str) -> bool:
        """True iff ``rank`` holds the layer's eigenbasis."""
        return rank in self.groups[layer]


def build_group_placement(
    factors: Sequence[FactorMeta],
    n_workers: int,
    frac: float,
    policy: str = "round_robin",
    cost_fn: Callable[[FactorMeta], float] = eig_cost,
) -> GroupPlacement:
    """Construct groups + within-group factor assignment for a fraction.

    ``policy`` mirrors the global policies: ``"round_robin"`` cycles each
    group's members in factor-enumeration order (with ``frac = 1`` every
    layer shares the whole-world group, so this degenerates to the exact
    global round-robin of :func:`round_robin_assignment`); ``"greedy"``
    gives each factor to the least-loaded member of its layer's group
    (degenerating to :func:`greedy_balanced_assignment` at ``frac = 1``).

    Example
    -------
    >>> metas = [FactorMeta("a", "A", 4), FactorMeta("b", "A", 4),
    ...          FactorMeta("a", "G", 2), FactorMeta("b", "G", 2)]
    >>> gp = build_group_placement(metas, n_workers=2, frac=1.0)
    >>> gp.assignment == round_robin_assignment(metas, 2)
    True
    >>> build_group_placement(metas, n_workers=2, frac=0.5).assignment
    {'a/A': 0, 'b/A': 1, 'a/G': 0, 'b/G': 1}
    """
    if policy not in ("round_robin", "greedy"):
        raise ValueError(f"unknown assignment policy {policy!r}")
    layer_names: list[str] = []
    for meta in factors:
        if meta.layer not in layer_names:
            layer_names.append(meta.layer)
    groups = grad_worker_groups(layer_names, n_workers, frac)
    assignment: dict[str, int] = {}
    if policy == "greedy":
        loads = [0.0] * n_workers
        for meta in sorted(factors, key=cost_fn, reverse=True):
            grp = groups[meta.layer]
            worker = min(grp, key=loads.__getitem__)
            assignment[meta.key] = worker
            loads[worker] += cost_fn(meta)
    else:
        cursor: dict[tuple[int, ...], int] = {}
        for meta in factors:
            grp = groups[meta.layer]
            i = cursor.get(grp, 0)
            assignment[meta.key] = grp[i % len(grp)]
            cursor[grp] = i + 1
    return GroupPlacement(
        n_workers=n_workers,
        group_size=grad_worker_count(n_workers, frac),
        groups=groups,
        assignment=assignment,
    )


# ----------------------------------------------------------------------
# one granularity's units: metas + assignment + group buckets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FactorUnits:
    """The comm/eig units of one granularity and where they are placed.

    Attributes
    ----------
    metas:
        The units in communication order: whole factors, or — under a
        block partition — each dense factor's blocks, consecutively.
    assignment:
        unit key -> the rank that decomposes it.
    placement:
        The gradient-worker placement (None when no ``frac`` was given).
    groups:
        Per gradient-worker group (empty when no ``frac`` was given),
        its ranks and the indices of its units in ``metas``.
    bounds:
        factor key -> block partition, for every factor split into blocks.
    """

    metas: tuple[FactorMeta, ...]
    assignment: dict[str, int]
    placement: GroupPlacement | None = None
    groups: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    bounds: dict[str, tuple[tuple[int, int], ...]] = field(default_factory=dict)


def plan_units(
    factors: Sequence[FactorMeta],
    n_workers: int = 1,
    policy: str = "round_robin",
    frac: float | None = None,
    bounds: Sequence[Sequence[tuple[int, int]]] | None = None,
) -> FactorUnits:
    """Split ``factors`` into units and place them — every granularity.

    ``bounds`` (one partition per factor, from
    :func:`repro.approx.blocks.plan_block_bounds`) splits each dense
    factor into its diagonal blocks; blocks of one factor stay
    consecutive, so wire payload order is deterministic across ranks.  A
    diagonal factor stays whole (every block partition of it is the
    factor).  The units are then placed by ``policy`` over ``n_workers``
    ranks, inside the gradient-worker groups of ``frac`` when it is set.

    Example
    -------
    >>> from repro.core.assignment import FactorMeta, plan_units
    >>> units = plan_units([FactorMeta("l0", "A", 4)], 2, bounds=[((0, 2), (2, 4))])
    >>> [(m.key, m.dim, m.lo, m.hi) for m in units.metas]
    [('l0/A#0', 2, 0, 2), ('l0/A#1', 2, 2, 4)]
    >>> units.assignment, units.bounds
    ({'l0/A#0': 0, 'l0/A#1': 1}, {'l0/A': ((0, 2), (2, 4))})
    >>> plan_units([FactorMeta("l0", "A", 4)], 2, frac=1.0).groups
    (((0, 1), (0,)),)
    """
    metas: list[FactorMeta] = list(factors)
    split: dict[str, tuple[tuple[int, int], ...]] = {}
    if bounds is not None:
        if len(factors) != len(bounds):
            raise ValueError(f"{len(factors)} factors but {len(bounds)} bound sets")
        metas = []
        for meta, b in zip(factors, bounds):
            if b[-1][1] != meta.dim:
                raise ValueError(f"{meta.key}: bounds cover {b[-1][1]} of {meta.dim} rows")
            if meta.diagonal:
                metas.append(meta)
                continue
            split[meta.key] = tuple(b)
            metas.extend(
                FactorMeta(meta.layer, meta.kind, hi - lo, block=j, lo=lo)
                for j, (lo, hi) in enumerate(b)
            )
    placement = None
    groups: tuple = ()
    if frac is not None:
        placement = build_group_placement(metas, n_workers, frac, policy=policy)
        assignment = placement.assignment
        grouped: dict[tuple[int, ...], list[int]] = {}
        for i, meta in enumerate(metas):
            grouped.setdefault(placement.groups[meta.layer], []).append(i)
        groups = tuple((grp, tuple(idxs)) for grp, idxs in grouped.items())
    elif policy == "greedy":
        assignment = greedy_balanced_assignment(metas, n_workers)
    else:
        assignment = round_robin_assignment(metas, n_workers)
    return FactorUnits(tuple(metas), assignment, placement, groups, split)
