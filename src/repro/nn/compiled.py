"""Compiled execution plans: trace a ``GraphNetwork`` into a flat op schedule.

The plan is the only forward/backward implementation of the network.  For
search workloads — thousands of 20-epoch trainings of small networks —
rebuilding an autograd tape and allocating per-op temporaries on every
step would dominate the step time, so ``GraphNetwork.compile()`` walks the
architecture **once** and emits a flat schedule of fused ops:

- ``_DenseOp`` — affine + activation in one step (``act(x @ W + b)``),
  with the activation's backward auxiliaries (ReLU mask, sigmoid/swish
  values) stored in preallocated buffers;
- ``_SkipOp`` — skip-connection fusion: all incoming projections, the
  sums, and the ReLU execute as one step (projection + sum + ReLU fused);
- identity nodes emit **no op at all**: their output slot aliases the
  input slot at trace time.

Execution writes into per-batch-size buffer sets (allocated on first use,
reused forever after), parameter gradients land in place in the network's
flat gradient vector, and the steady-state train step does zero graph
construction and near-zero allocation.

Numerical contract: the plan replays the exact operation order of a
reverse-mode tape over the same ops (same kernels, same association order
for skip sums, the same stable-sigmoid formula).  That tape lives in
``tests/reference/`` as the gradient oracle; losses and gradients match it
to 1e-10, in practice bitwise.

A plan also executes in **multi-rank mode** for the data-parallel
trainer: :meth:`CompiledPlan.loss_and_grads_ranked` runs ``n`` stacked
micro-batches through one fused forward/backward and recovers the *per
rank* parameter gradients — batched ``(n, bs, ·)`` matmuls writing
through column-slice views into one ``(n, P)`` flat matrix
(:class:`_RankGradBuffers`), one row per rank.  The trainer averages the
rows into the network's gradient vector, which the optimizer reads.  Each rank's
gradients are bitwise identical to ``n`` separate ``loss_and_grad`` calls
(gated in ``tests/test_rank_vectorized.py``).

Buffer-reuse invariants (see DESIGN.md §Performance):

1. every forward value slot is written exactly once per step and stays
   valid until the next ``loss_and_grad``/``predict_logits`` call on the
   same plan (backward reads forward values);
2. every parameter array is a view of the network's flat ``params_flat``
   vector and every gradient buffer a view of ``grads_flat``, both in
   ``parameters()`` order; views are never rebound, so loading weights
   copies into them and the plan sees the result without re-tracing;
3. gradient slots are written by their *first* consumer in reverse
   schedule order (a plain write, precomputed at trace time) and ``+=``
   by every later consumer — no zeroing pass is needed;
4. per-parameter gradient buffers are fully overwritten each step (every
   parameter has exactly one consuming op), so stale values can never
   leak between steps;
5. a plan is **not** thread-safe: concurrent evaluations must compile one
   plan per model (which the evaluators do — one model per candidate).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dense

__all__ = ["CompiledPlan", "unflatten"]


def _stable_sigmoid_into(x: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                         neg: np.ndarray) -> None:
    """Numerically stable sigmoid, bitwise-equal to the two-branch formula.

    ``exp(-|x|)`` is shared by both branches: for ``x >= 0`` the tape
    computes ``1 / (1 + exp(-x))`` and for ``x < 0`` it computes
    ``e / (1 + e)`` with ``e = exp(x)`` — in both cases the exponential is
    ``exp(-|x|)``, so the branchless form below reproduces the same bits.
    """
    np.less(x, 0.0, out=neg)
    np.abs(x, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)          # exp(-|x|)
    np.add(scratch, 1.0, out=out)         # 1 + exp(-|x|)
    np.divide(scratch, out, out=scratch)  # negative branch: e / (1 + e)
    np.divide(1.0, out, out=out)          # positive branch: 1 / (1 + e)
    np.copyto(out, scratch, where=neg)


def unflatten(flat: np.ndarray, segments) -> list[np.ndarray]:
    """Split the last axis of ``flat`` into reshaped views, one per segment.

    ``flat`` has shape ``(..., P)`` and ``segments`` holds ``(offset, size,
    shape)`` triples; each view has shape ``(...,) + shape``.
    """
    lead = flat.shape[:-1]
    views = [flat[..., o : o + s].reshape(lead + shape) for o, s, shape in segments]
    if not all(np.may_share_memory(v, flat) for v in views):
        raise AssertionError("parameter views must alias the flat vector")
    return views


class _DenseOp:
    """Fused affine + activation: ``out = act(in @ W + b)``."""

    __slots__ = ("layer", "activation", "in_slot", "out_slot",
                 "in_needs_grad", "first_touch")

    def __init__(self, layer: Dense, in_slot: int, out_slot: int) -> None:
        self.layer = layer
        self.activation = layer.activation
        self.in_slot = in_slot
        self.out_slot = out_slot
        self.in_needs_grad = True   # patched by the plan for the input slot
        self.first_touch = True     # patched by the plan (reverse-order scan)

    def forward(self, vals: list[np.ndarray], aux: dict) -> None:
        h = vals[self.in_slot]
        out = vals[self.out_slot]
        np.matmul(h, self.layer.W, out=out)
        out += self.layer.b
        act = self.activation
        if act is None or act == "identity":
            return
        if act == "relu":
            mask, nmask = aux[(id(self), "mask")], aux[(id(self), "nmask")]
            np.greater(out, 0.0, out=mask)
            np.logical_not(mask, out=nmask)
            np.copyto(out, 0.0, where=nmask)
        elif act == "tanh":
            np.tanh(out, out=out)  # backward reads the stored output
        elif act == "sigmoid":
            scr, neg = aux[(id(self), "scr")], aux[(id(self), "neg")]
            _stable_sigmoid_into(out, out, scr, neg)
        elif act == "swish":
            sig = aux[(id(self), "sig")]
            scr, neg = aux[(id(self), "scr")], aux[(id(self), "neg")]
            _stable_sigmoid_into(out, sig, scr, neg)
            np.multiply(out, sig, out=out)
        else:  # pragma: no cover - trace time rejects unknown activations
            raise AssertionError(f"unknown activation {act!r}")

    def backward(self, vals: list[np.ndarray], grads: list[np.ndarray | None],
                 aux: dict, gW: np.ndarray, gb: np.ndarray,
                 ranks: int = 0) -> None:
        """Backward step; ``ranks > 0`` switches to rank-batched param grads.

        In rank mode the batch axis is ``ranks`` stacked micro-batches and
        ``gW``/``gb`` are ``(ranks, ...)`` buffers: the parameter gradients
        are reduced per micro-batch segment via one batched matmul instead
        of the full-batch reduction.  The activation backward and the
        input-gradient chain are row-wise and shared by both modes.
        """
        dout = grads[self.out_slot]
        act = self.activation
        if act == "relu":
            dout *= aux[(id(self), "mask")]
        elif act == "tanh":
            v = vals[self.out_slot]
            scr = aux[(id(self), "scr")]
            np.multiply(v, v, out=scr)
            np.subtract(1.0, scr, out=scr)
            dout *= scr
        elif act == "sigmoid":
            v = vals[self.out_slot]
            scr = aux[(id(self), "scr")]
            np.subtract(1.0, v, out=scr)
            dout *= v
            dout *= scr
        elif act == "swish":
            sig = aux[(id(self), "sig")]
            scr = aux[(id(self), "scr")]
            v = vals[self.out_slot]
            np.subtract(1.0, sig, out=scr)
            scr *= v
            scr += sig
            dout *= scr
        h = vals[self.in_slot]
        if ranks:
            bs = h.shape[0] // ranks
            h3 = h.reshape(ranks, bs, h.shape[1])
            d3 = dout.reshape(ranks, bs, dout.shape[1])
            np.matmul(h3.transpose(0, 2, 1), d3, out=gW)
            np.sum(d3, axis=1, out=gb)
        else:
            np.matmul(h.T, dout, out=gW)
            np.sum(dout, axis=0, out=gb)
        if self.in_needs_grad:
            din = grads[self.in_slot]
            if self.first_touch:
                np.matmul(dout, self.layer.W.T, out=din)
            else:
                tmp = aux[(id(self), "dtmp")]
                np.matmul(dout, self.layer.W.T, out=tmp)
                din += tmp


class _SkipOp:
    """Fused skip connection: ``out = relu(base + Σ_s proj_s(h_s))``.

    Sources are summed in ascending-source order — the association order of
    the tape reference — so the forward values match bitwise.
    """

    __slots__ = ("base_slot", "sources", "out_slot",
                 "base_needs_grad", "base_first_touch", "source_flags")

    def __init__(self, base_slot: int,
                 sources: list[tuple[int, Dense]], out_slot: int) -> None:
        self.base_slot = base_slot
        self.sources = sources  # [(slot, projection layer)] ascending source
        self.out_slot = out_slot
        self.base_needs_grad = True
        self.base_first_touch = True
        # per source (reverse order): (needs_grad, first_touch)
        self.source_flags: list[tuple[bool, bool]] = [(True, True)] * len(sources)

    def forward(self, vals: list[np.ndarray], aux: dict) -> None:
        acc = vals[self.out_slot]
        ptmp = aux[(id(self), "ptmp")]
        for k, (slot, proj) in enumerate(self.sources):
            np.matmul(vals[slot], proj.W, out=ptmp)
            ptmp += proj.b
            if k == 0:
                np.add(vals[self.base_slot], ptmp, out=acc)
            else:
                acc += ptmp
        mask, nmask = aux[(id(self), "mask")], aux[(id(self), "nmask")]
        np.greater(acc, 0.0, out=mask)
        np.logical_not(mask, out=nmask)
        np.copyto(acc, 0.0, where=nmask)

    def backward(self, vals: list[np.ndarray], grads: list[np.ndarray | None],
                 aux: dict, param_grads: dict, ranks: int = 0) -> None:
        dacc = grads[self.out_slot]
        dacc *= aux[(id(self), "mask")]
        if self.base_needs_grad:
            dbase = grads[self.base_slot]
            if self.base_first_touch:
                np.copyto(dbase, dacc)
            else:
                dbase += dacc
        # Reverse source order mirrors the tape's unwinding of the
        # nested adds, keeping multi-consumer accumulation order identical.
        for k in range(len(self.sources) - 1, -1, -1):
            slot, proj = self.sources[k]
            needs_grad, first = self.source_flags[k]
            gW, gb = param_grads[id(proj)]
            h = vals[slot]
            if ranks:
                bs = h.shape[0] // ranks
                h3 = h.reshape(ranks, bs, h.shape[1])
                d3 = dacc.reshape(ranks, bs, dacc.shape[1])
                np.matmul(h3.transpose(0, 2, 1), d3, out=gW)
                np.sum(d3, axis=1, out=gb)
            else:
                np.matmul(h.T, dacc, out=gW)
                np.sum(dacc, axis=0, out=gb)
            if needs_grad:
                dsrc = grads[slot]
                if first:
                    np.matmul(dacc, proj.W.T, out=dsrc)
                else:
                    dtmp = aux[(id(self), "dtmp", k)]
                    np.matmul(dacc, proj.W.T, out=dtmp)
                    dsrc += dtmp


class _BufferSet:
    """All per-batch-size arrays one plan execution needs."""

    __slots__ = ("vals", "grads", "aux", "rows", "probs", "rowred")

    def __init__(self, plan: "CompiledPlan", n: int) -> None:
        dt = plan.dtype
        widths = plan.slot_widths
        self.vals: list[np.ndarray] = [np.empty((n, w), dtype=dt) for w in widths]
        # Slot 0 is the input design matrix; it is replaced per call.
        self.grads: list[np.ndarray | None] = [
            None if s == 0 else np.empty((n, w), dtype=dt)
            for s, w in enumerate(widths)
        ]
        aux: dict = {}
        for op in plan.ops:
            key = id(op)
            if isinstance(op, _DenseOp):
                w = widths[op.out_slot]
                act = op.activation
                if act == "relu":
                    aux[(key, "mask")] = np.empty((n, w), dtype=bool)
                    aux[(key, "nmask")] = np.empty((n, w), dtype=bool)
                elif act in ("tanh",):
                    aux[(key, "scr")] = np.empty((n, w), dtype=dt)
                elif act in ("sigmoid", "swish"):
                    aux[(key, "scr")] = np.empty((n, w), dtype=dt)
                    aux[(key, "neg")] = np.empty((n, w), dtype=bool)
                    if act == "swish":
                        aux[(key, "sig")] = np.empty((n, w), dtype=dt)
                if op.in_needs_grad and not op.first_touch:
                    aux[(key, "dtmp")] = np.empty((n, widths[op.in_slot]), dtype=dt)
            else:  # _SkipOp
                w = widths[op.out_slot]
                aux[(key, "ptmp")] = np.empty((n, w), dtype=dt)
                aux[(key, "mask")] = np.empty((n, w), dtype=bool)
                aux[(key, "nmask")] = np.empty((n, w), dtype=bool)
                for k, (slot, _) in enumerate(op.sources):
                    needs_grad, first = op.source_flags[k]
                    if needs_grad and not first:
                        aux[(key, "dtmp", k)] = np.empty((n, widths[slot]), dtype=dt)
        self.aux = aux
        self.rows = np.arange(n)
        n_classes = widths[plan.logits_slot]
        self.probs = np.empty((n, n_classes), dtype=dt)
        self.rowred = np.empty((n, 1), dtype=dt)


class _RankGradBuffers:
    """One flat ``(num_ranks, P)`` per-rank gradient matrix with views.

    Every layer's batched gradients (``(n, d_in, d_out)`` for weights,
    ``(n, d_out)`` for biases) are reshaped column-slice *views* into the
    flat matrix, so the backward pass writes each rank's gradients directly
    into its row in ``parameters()`` order — no packing pass, no per-rank
    copies.
    """

    __slots__ = ("flat", "layer_views")

    def __init__(self, plan: "CompiledPlan", num_ranks: int) -> None:
        self.flat = np.empty((num_ranks, plan.num_flat_params), dtype=plan.dtype)
        self.layer_views = plan._layer_views(self.flat)


class CompiledPlan:
    """Flat, fused, buffer-reusing execution plan for one ``GraphNetwork``.

    Built by :meth:`repro.nn.graph_network.GraphNetwork.compile`.  The plan
    reads the network's parameter views and writes its gradient views, so
    in-place optimizer updates and ``set_weights`` are picked up without
    re-tracing.
    """

    def __init__(self, model) -> None:
        # The plan keeps the network's layers and layout but not the network
        # itself: no reference cycle, so a finished evaluation's network and
        # buffers are freed as soon as the last reference goes.
        self.layers = model.layers
        self.dtype = model.dtype
        spec = model.spec
        m = spec.num_nodes

        slot_widths: list[int] = [model.input_dim]   # slot 0 = input
        node_slot: list[int] = [0]                   # graph node -> slot
        ops: list[_DenseOp | _SkipOp] = []

        def new_slot(width: int) -> int:
            slot_widths.append(width)
            return len(slot_widths) - 1

        for i in range(1, m + 2):  # variable nodes, then the output node
            incoming = node_slot[i - 1]
            skip_sources = sorted(
                s for (s, d) in model._projections if d == i
            )
            if skip_sources:
                out = new_slot(slot_widths[incoming])
                ops.append(_SkipOp(
                    incoming,
                    [(node_slot[s], model._projections[(s, i)]) for s in skip_sources],
                    out,
                ))
                incoming = out
            if i <= m:
                layer = model._node_layers[i - 1]
                if layer is None:
                    node_slot.append(incoming)  # identity: alias, no op
                else:
                    out = new_slot(layer.units)
                    ops.append(_DenseOp(layer, incoming, out))
                    node_slot.append(out)
            else:
                out = new_slot(model.n_classes)
                ops.append(_DenseOp(model._output, incoming, out))
                self.logits_slot = out

        self.ops = ops
        self.slot_widths = slot_widths

        # Reverse-order scan: decide, per gradient slot, which consumer
        # writes first (plain store) and which accumulate (+=).  Slot 0 is
        # the input and never receives a gradient.
        touched: set[int] = set()

        def claim(slot: int) -> tuple[bool, bool]:
            if slot == 0:
                return False, True
            first = slot not in touched
            touched.add(slot)
            return True, first

        for op in reversed(ops):
            if isinstance(op, _DenseOp):
                op.in_needs_grad, op.first_touch = claim(op.in_slot)
            else:
                op.base_needs_grad, op.base_first_touch = claim(op.base_slot)
                op.source_flags = [claim(slot) for slot, _ in reversed(op.sources)]
                op.source_flags.reverse()  # re-align with ascending sources

        # Per-layer (gW, gb) views of the network's flat gradient vector;
        # each layer is consumed by exactly one op, so every buffer is
        # fully overwritten each step.
        self.param_segments = model.param_segments
        self.num_flat_params = model.params_flat.size
        self.param_grads = self._layer_views(model.grads_flat)

        self._buffers: dict[int, _BufferSet] = {}
        self._rank_buffers: dict[int, _RankGradBuffers] = {}

    # ------------------------------------------------------------------ #
    def _layer_views(self, flat: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """``id(layer) -> (W, b)`` views of ``flat``'s last axis."""
        views = unflatten(flat, self.param_segments)
        return {
            id(layer): (W, b) for layer, W, b in zip(self.layers, views[0::2], views[1::2])
        }

    def buffers_for(self, n: int) -> _BufferSet:
        bufs = self._buffers.get(n)
        if bufs is None:
            bufs = _BufferSet(self, n)
            self._buffers[n] = bufs
        return bufs

    def rank_buffers_for(self, num_ranks: int) -> _RankGradBuffers:
        bufs = self._rank_buffers.get(num_ranks)
        if bufs is None:
            bufs = _RankGradBuffers(self, num_ranks)
            self._rank_buffers[num_ranks] = bufs
        return bufs

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    # ------------------------------------------------------------------ #
    def _forward(self, X: np.ndarray, bufs: _BufferSet) -> np.ndarray:
        bufs.vals[0] = X
        aux = bufs.aux
        vals = bufs.vals
        for op in self.ops:
            op.forward(vals, aux)
        return vals[self.logits_slot]

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean softmax cross-entropy and its gradients, in one fused pass.

        On return the network's ``grads_flat`` holds the fresh gradient,
        ready for ``optimizer.step()``; it is fully overwritten, never
        accumulated across steps.
        """
        X = np.ascontiguousarray(X, dtype=self.dtype)
        y = np.asarray(y)
        n = X.shape[0]
        bufs = self.buffers_for(n)
        logits = self._forward(X, bufs)

        # Softmax cross-entropy, replaying the tape's op order exactly.
        shifted = bufs.probs
        rowred = bufs.rowred
        np.max(logits, axis=1, keepdims=True, out=rowred)
        np.subtract(logits, rowred, out=shifted)
        dlogits = bufs.grads[self.logits_slot]
        np.exp(shifted, out=dlogits)                       # exp(shifted), reused
        np.sum(dlogits, axis=1, keepdims=True, out=rowred)
        np.log(rowred, out=rowred)
        shifted -= rowred                                  # log-probs
        labels = y.astype(np.intp, copy=False)
        picked = shifted[bufs.rows, labels]
        loss = -float(picked.mean())

        # d loss / d logits = (softmax - onehot) / n
        c = 1.0 / n
        np.exp(shifted, out=dlogits)                       # softmax
        dlogits *= c
        dlogits[bufs.rows, labels] -= c

        vals, grads, aux = bufs.vals, bufs.grads, bufs.aux
        for op in reversed(self.ops):
            if isinstance(op, _DenseOp):
                gW, gb = self.param_grads[id(op.layer)]
                op.backward(vals, grads, aux, gW, gb)
            else:
                op.backward(vals, grads, aux, self.param_grads)
        return loss

    def loss_and_grads_ranked(
        self, X: np.ndarray, y: np.ndarray, num_ranks: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-rank losses and gradients in one fused pass.

        ``X``/``y`` hold ``num_ranks`` stacked equal-size micro-batches
        (rank ``r`` owns rows ``[r·bs, (r+1)·bs)``).  One forward/backward
        runs over all ``n·bs`` rows — forward values and the activation /
        input-gradient chain are row-wise, hence identical to the per-rank
        loop — while each rank's *own* mean-loss gradient is recovered by
        batched segment reduction: ``dlogits`` rows are scaled by
        ``1/bs`` (not ``1/(n·bs)``) and every parameter gradient reduces
        its ``(n, bs, ·)`` reshape over the micro-batch axis only.

        Returns ``(losses, rank_grads)``: per-rank mean losses ``(n,)``
        (float64) and the plan's reused ``(n, P)`` flat gradient matrix,
        each row in ``parameters()`` order (the layout of ``grads_flat``).
        The matrix is overwritten by the next call; reduce it before then.  ``grads_flat`` is untouched —
        the caller reduces the matrix into it.
        """
        X = np.ascontiguousarray(X, dtype=self.dtype)
        y = np.asarray(y)
        n_rows = X.shape[0]
        if num_ranks < 1 or n_rows % num_ranks:
            raise ValueError(
                f"stacked batch of {n_rows} rows does not split into "
                f"{num_ranks} equal micro-batches"
            )
        bs = n_rows // num_ranks
        bufs = self.buffers_for(n_rows)
        logits = self._forward(X, bufs)

        # Softmax cross-entropy, replaying the tape's op order exactly; the
        # only departure from loss_and_grad is the per-rank loss reduction
        # and the 1/bs gradient scale.
        shifted = bufs.probs
        rowred = bufs.rowred
        np.max(logits, axis=1, keepdims=True, out=rowred)
        np.subtract(logits, rowred, out=shifted)
        dlogits = bufs.grads[self.logits_slot]
        np.exp(shifted, out=dlogits)
        np.sum(dlogits, axis=1, keepdims=True, out=rowred)
        np.log(rowred, out=rowred)
        shifted -= rowred                                  # log-probs
        labels = y.astype(np.intp, copy=False)
        picked = shifted[bufs.rows, labels]
        losses = -picked.reshape(num_ranks, bs).mean(axis=1).astype(np.float64)

        c = 1.0 / bs
        np.exp(shifted, out=dlogits)                       # softmax
        dlogits *= c
        dlogits[bufs.rows, labels] -= c

        rank_bufs = self.rank_buffers_for(num_ranks)
        vals, grads, aux = bufs.vals, bufs.grads, bufs.aux
        for op in reversed(self.ops):
            if isinstance(op, _DenseOp):
                gW, gb = rank_bufs.layer_views[id(op.layer)]
                op.backward(vals, grads, aux, gW, gb, ranks=num_ranks)
            else:
                op.backward(vals, grads, aux, rank_bufs.layer_views, ranks=num_ranks)
        return losses, rank_bufs.flat

    def predict_logits(self, X: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Inference-mode logits, chunked to bound peak buffer memory."""
        X = np.ascontiguousarray(X, dtype=self.dtype)
        n = X.shape[0]
        n_classes = self.slot_widths[self.logits_slot]
        out = np.empty((n, n_classes), dtype=self.dtype)
        for start in range(0, n, batch_size):
            chunk = X[start : start + batch_size]
            bufs = self.buffers_for(chunk.shape[0])
            out[start : start + chunk.shape[0]] = self._forward(
                np.ascontiguousarray(chunk), bufs
            )
        return out
