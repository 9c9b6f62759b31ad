"""World-size-portable K-FAC checkpoints: gather and redistribute.

A per-rank :meth:`repro.core.preconditioner.KFAC.state_dict` snapshot only
carries the second-order shards *this* rank owns under *this* placement —
it cannot resume at a different world size or ``grad_worker_frac``.
:func:`gather_state_dict` allgathers every rank's owned eigendecompositions
(or explicit inverses) into one rank-agnostic bundle stamped
``portable: True``; ``KFAC.load_state_dict`` then redistributes it on load,
hydrating second-order state only where the *current* placement makes the
loading rank a gradient worker.  :func:`redistribution_plan` is the pure
metadata mirror of that hydration rule — it answers "which ranks will hold
which layers' eigenbases" for any (world size, fraction) without
constructing a preconditioner.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.assignment import grad_worker_groups, second_order_shapes

__all__ = ["gather_state_dict", "redistribution_plan"]

#: second-order entry keys a gathered bundle may carry per layer (a
#: diagonal factor's identity basis has no ``eig_A_Q``)
_SECOND_ORDER_KEYS = frozenset(
    ("eig_A_Q", "eig_A_lam", "eig_G_Q", "eig_G_lam", "inv_A", "inv_G")
)


def redistribution_plan(
    layer_names: Sequence[str],
    world_size: int,
    grad_worker_frac: float = 1.0,
) -> dict[int, tuple[str, ...]]:
    """Which ranks hold which layers' second-order state under a placement.

    Returns ``{rank: (layer names...)}`` covering every rank in
    ``range(world_size)``.  This is exactly the set of layers
    ``KFAC.load_state_dict`` hydrates eigenbases for when a portable
    bundle is loaded at that rank (``KFAC.is_grad_worker`` agrees rank by
    rank): the contiguous wrap-around gradient-worker group of each layer
    — every rank at ``f = 1`` (``COMM_OPT``), only the ``i % P`` owner at
    ``f = 1/P`` (``LAYER_WISE``).

    Example
    -------
    >>> from repro.elastic import redistribution_plan
    >>> redistribution_plan(["a", "b", "c"], 2)
    {0: ('a', 'b', 'c'), 1: ('a', 'b', 'c')}
    >>> redistribution_plan(["a", "b", "c"], 2, grad_worker_frac=1 / 2)
    {0: ('a', 'c'), 1: ('b',)}
    >>> redistribution_plan(["a", "b"], 4, grad_worker_frac=0.5)
    {0: ('a',), 1: ('a', 'b'), 2: ('b',), 3: ()}
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    groups = grad_worker_groups(layer_names, world_size, grad_worker_frac)
    return {r: tuple(n for n in layer_names if r in groups[n]) for r in range(world_size)}


def gather_state_dict(
    kfac: Any, hvd: Any | None = None, peers: Sequence[Any] | None = None
) -> dict:
    """Gather a rank-agnostic (*portable*) K-FAC snapshot.

    The result is ``KFAC.state_dict()`` completed with **every** layer's
    second-order state and stamped ``portable: True`` plus a
    ``gathered_from`` record; ``KFAC.load_state_dict`` accepts it under
    any world size / strategy / ``grad_worker_frac`` and redistributes on
    load.  Call it at a step boundary (after ``optimizer.step()``), when
    the running-average factors are identical on every rank.

    How the missing shards are collected depends on the execution style:

    - ``world_size == 1`` or every rank a gradient worker (``f = 1``,
      ``COMM_OPT``): the local snapshot is already complete — no
      communication.
    - ``peers=[kfac_rank0, kfac_rank1, ...]`` (phase-style drivers, all
      replicas in one process): merged directly from the peer objects.
    - ``hvd=HorovodContext`` (SPMD): two allgathers — a per-factor
      presence flag vector, then the owned shards packed at the factor
      dtype (``KFAC.factor_dtype``, which every eigenbasis carries).  This
      is a collective: **every** rank must call it.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.preconditioner import KFAC
    >>> from repro.elastic import gather_state_dict
    >>> from repro.nn import Linear, Sequential
    >>> from repro.nn.loss import CrossEntropyLoss
    >>> model = Sequential(Linear(4, 3))
    >>> kfac = KFAC(model, kfac_update_freq=1, damping=0.01)
    >>> loss_fn = CrossEntropyLoss()
    >>> x = np.random.default_rng(0).normal(size=(6, 4)).astype(np.float32)
    >>> _ = loss_fn(model(x), np.arange(6) % 3)
    >>> _ = model.backward(loss_fn.backward())
    >>> kfac.step()
    >>> bundle = gather_state_dict(kfac)       # world of one: already complete
    >>> bundle["portable"], bundle["gathered_from"]["world_size"]
    (True, 1)
    >>> sorted(k for k in bundle["layers"]["m0"] if k.startswith("eig_A"))
    ['eig_A_Q', 'eig_A_lam']
    """
    if hvd is not None and peers is not None:
        raise ValueError("pass at most one of hvd= and peers=")
    state = kfac.state_dict()
    state["portable"] = True
    state["gathered_from"] = {
        "world_size": kfac.world_size,
        "rank": kfac.rank,
        "strategy": kfac.hp.strategy,
        "grad_worker_frac": kfac.hp.grad_worker_frac,
    }
    if kfac.world_size == 1:
        return state
    if peers is not None:
        _merge_from_peers(state, peers)
    elif hvd is not None:
        _allgather_shards(kfac, state, hvd)
    elif kfac.grad_worker_count < kfac.world_size:
        raise ValueError(
            f"{kfac.grad_worker_count} gradient worker(s) per layer keep "
            f"second-order state sharded across {kfac.world_size} ranks; "
            "gather_state_dict needs hvd= (SPMD) or peers= (phase-style "
            "replicas) to collect the missing shards"
        )
    return state


# ----------------------------------------------------------------------
# phase-style gather: all replicas live in this process
# ----------------------------------------------------------------------
def _merge_from_peers(state: dict, peers: Sequence[Any]) -> None:
    """Fill in the layers whose second-order shard another replica holds.

    Reads the missing arrays straight off the peers' layer handlers — one
    copy of what is merged and nothing else — and returns at once when the
    local snapshot is already complete (every rank a gradient worker).
    """
    entries = state["layers"]
    missing = {n for n, e in entries.items() if _SECOND_ORDER_KEYS.isdisjoint(e)}
    for peer in peers:
        if not missing:
            return
        for layer in peer.layers:
            if layer.name in missing and layer.ready:
                entries[layer.name].update(layer.second_order_entry())
                missing.discard(layer.name)


# ----------------------------------------------------------------------
# SPMD gather: two allgathers over the HorovodContext
# ----------------------------------------------------------------------
def _local_arrays(kfac: Any, meta: Any) -> list[np.ndarray] | None:
    layer = kfac._layer_by_name(meta.layer)
    if kfac.hp.use_eigen_decomp:
        eig = layer.eig_A if meta.kind == "A" else layer.eig_G
        return None if eig is None else eig.arrays()
    inv = layer.inv_A if meta.kind == "A" else layer.inv_G
    return None if inv is None else [inv]


def _entry_keys(kfac: Any, meta: Any) -> tuple[str, ...]:
    k = meta.kind
    keys = (f"eig_{k}_Q", f"eig_{k}_lam") if kfac.hp.use_eigen_decomp else (f"inv_{k}",)
    return keys[-1:] if meta.diagonal else keys  # diagonal: one vector, no Q


def _allgather_shards(kfac: Any, state: dict, hvd: Any) -> None:
    metas = kfac.factor_metas
    # the rank that computed (and therefore holds) each factor's shard
    owner = kfac._units[0].assignment
    owned = [m for m in metas if owner[m.key] == kfac.rank]
    flags: list[float] = []
    chunks: list[np.ndarray] = []
    for meta in owned:
        arrays = _local_arrays(kfac, meta)
        flags.append(float(arrays is not None))
        chunks.extend(a.reshape(-1) for a in arrays or ())
    flags_buf = np.asarray(flags, dtype=np.float64)
    payload = np.concatenate(chunks) if chunks else np.zeros(0, kfac.factor_dtype)
    all_flags = hvd.allgather(flags_buf, name="elastic:gather:flags")
    all_payloads = hvd.allgather(payload, name="elastic:gather:shards")
    for r in range(kfac.world_size):
        r_owned = [m for m in metas if owner[m.key] == r]
        r_flags, buf = all_flags[r], all_payloads[r]
        offset = 0
        for meta, flag in zip(r_owned, r_flags):
            if not flag:
                continue
            entry = state["layers"].setdefault(meta.layer, {})
            shapes = second_order_shapes(meta, kfac.hp.use_eigen_decomp)
            for key, shape in zip(_entry_keys(kfac, meta), shapes):
                size = int(np.prod(shape))
                entry[key] = buf[offset : offset + size].reshape(shape).copy()
                offset += size
