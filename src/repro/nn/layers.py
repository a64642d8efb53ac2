"""GNN layers that operate on the DENSE neighborhood layout.

Each layer consumes:

* ``h`` — a ``Tensor`` of input representations for *all* node IDs currently
  in DENSE (ordered ``[delta_0, delta_1, ..., delta_k]``), and
* ``view`` — a :class:`DenseLayerView` describing the current DENSE arrays.

and produces output representations for the nodes after
``node_id_offsets[1]`` (the paper's Step 1 in Section 4.2). Aggregation uses
the dense ``segment_sum`` kernel of Algorithm 3 — neighbors of each output
node are contiguous in memory, so per-node aggregation reduces to a segmented
reduction, the property that lets MariusGNN avoid sparse-matrix kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import functional as F
from .init import glorot_uniform, zeros_init
from .module import Module
from .tensor import Tensor, scatter_add_rows


@dataclass
class DenseLayerView:
    """The slice of DENSE a single GNN layer needs.

    Attributes
    ----------
    repr_map:
        For each entry of the DENSE ``nbrs`` array belonging to this layer's
        output nodes, the row index in ``h`` holding that neighbor's input
        representation (paper Section 4.2).
    nbr_offsets:
        Start offset of each output node's neighbor run within ``repr_map``.
    self_start:
        Row in ``h`` where the output nodes' own representations begin
        (``node_id_offsets[1]``); output nodes are ``h[self_start:]``.
    num_outputs:
        Number of output nodes (= ``len(h) - self_start``).
    """

    repr_map: np.ndarray
    nbr_offsets: np.ndarray
    self_start: int
    num_outputs: int


class Linear(Module):
    """Dense affine layer ``x @ W + b``."""

    def __init__(self, in_dim: int, out_dim: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = self.register_parameter("weight", glorot_uniform((in_dim, out_dim), rng))
        self.bias = self.register_parameter("bias", zeros_init((out_dim,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class GraphSageLayer(Module):
    """GraphSage aggregation (Hamilton et al. 2017) over a DENSE view.

    ``h_v' = act(W_self h_v + W_nbr mean({h_u : u in sampled N(v)}))``

    This is the model used in the paper's node classification and link
    prediction experiments (Tables 3-6, 8).
    """

    def __init__(self, in_dim: int, out_dim: int, activation: Optional[str] = "relu",
                 dropout: float = 0.0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.dropout = dropout
        self.w_self = self.register_parameter("w_self", glorot_uniform((in_dim, out_dim), rng))
        self.w_nbr = self.register_parameter("w_nbr", glorot_uniform((in_dim, out_dim), rng))
        self.bias = self.register_parameter("bias", zeros_init((out_dim,))) if bias else None
        self._rng = rng or np.random.default_rng()

    def forward(self, h: Tensor, view: DenseLayerView) -> Tensor:
        h = F.dropout(h, self.dropout, self.training, self._rng)
        # Algorithm 3 line 1: gather neighbor representations via repr_map.
        nbr_repr = h.index_select(view.repr_map)
        # Algorithm 3 line 2: dense segmented reduction (mean aggregator).
        nbr_aggr = F.segment_mean(nbr_repr, view.nbr_offsets, view.num_outputs)
        # Algorithm 3 line 3: self representations are the tail of h.
        self_repr = h.narrow(view.self_start, view.num_outputs)
        out = self_repr.matmul(self.w_self) + nbr_aggr.matmul(self.w_nbr)
        if self.bias is not None:
            out = out + self.bias
        if self.activation == "relu":
            out = out.relu()
        elif self.activation == "tanh":
            out = out.tanh()
        return out


class PoolGraphSageLayer(Module):
    """GraphSage with the max-pooling aggregator (Hamilton et al., eq. 3).

    Each neighbor representation passes through a learned projection + ReLU
    and the element-wise *max* over the neighbor segment replaces the mean.
    Exercises the segment-max reduction path of the DENSE layout.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: Optional[str] = "relu",
                 dropout: float = 0.0, pool_dim: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.dropout = dropout
        pool_dim = pool_dim or in_dim
        self.w_pool = self.register_parameter("w_pool", glorot_uniform((in_dim, pool_dim), rng))
        self.b_pool = self.register_parameter("b_pool", zeros_init((pool_dim,)))
        self.w_self = self.register_parameter("w_self", glorot_uniform((in_dim, out_dim), rng))
        self.w_nbr = self.register_parameter("w_nbr", glorot_uniform((pool_dim, out_dim), rng))
        self.bias = self.register_parameter("bias", zeros_init((out_dim,)))
        self._rng = rng or np.random.default_rng()

    def forward(self, h: Tensor, view: DenseLayerView) -> Tensor:
        h = F.dropout(h, self.dropout, self.training, self._rng)
        nbr_repr = h.index_select(view.repr_map)
        pooled_in = (nbr_repr.matmul(self.w_pool) + self.b_pool).relu()
        nbr_aggr = _segment_max(pooled_in, view.nbr_offsets, view.num_outputs)
        self_repr = h.narrow(view.self_start, view.num_outputs)
        out = self_repr.matmul(self.w_self) + nbr_aggr.matmul(self.w_nbr) + self.bias
        if self.activation == "relu":
            out = out.relu()
        elif self.activation == "tanh":
            out = out.tanh()
        return out


def _segment_max(values: Tensor, offsets: np.ndarray, num_segments: int) -> Tensor:
    """Differentiable per-segment elementwise max (zero for empty segments)."""
    n = values.data.shape[0]
    counts = F.segment_counts(np.asarray(offsets, dtype=np.int64), n)
    out_data = np.zeros((num_segments,) + values.data.shape[1:],
                        dtype=values.data.dtype)
    nonempty = counts > 0
    if n and nonempty.any():
        out_data[nonempty] = np.maximum.reduceat(
            values.data, np.asarray(offsets)[nonempty], axis=0)
    seg_ids = F.segment_ids_from_offsets(np.asarray(offsets), n)

    def backward(grad: np.ndarray) -> None:
        if not values.requires_grad:
            return
        # Route gradient to the arg-max entry of each segment/column.
        expanded = out_data[seg_ids]
        mask = values.data == expanded
        # Split ties evenly, mirroring Tensor.max.
        tie_counts = scatter_add_rows(mask.astype(values.data.dtype), seg_ids,
                                      num_segments)
        denom = np.maximum(tie_counts[seg_ids], 1.0)
        values._accumulate(grad[seg_ids] * mask / denom)

    return Tensor._make(out_data, (values,), backward)


class GINLayer(Module):
    """Graph Isomorphism Network layer (Xu et al. 2019).

    ``h_v' = MLP((1 + eps) * h_v + sum_u h_u)`` with a learnable eps —
    included as the expressiveness-oriented member of the layer zoo; runs on
    the same DENSE segment-sum kernel as GraphSage.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: Optional[str] = "relu",
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.dropout = dropout
        self.eps = self.register_parameter("eps", zeros_init((1,)))
        self.w1 = self.register_parameter("w1", glorot_uniform((in_dim, out_dim), rng))
        self.b1 = self.register_parameter("b1", zeros_init((out_dim,)))
        self.w2 = self.register_parameter("w2", glorot_uniform((out_dim, out_dim), rng))
        self.b2 = self.register_parameter("b2", zeros_init((out_dim,)))
        self._rng = rng or np.random.default_rng()

    def forward(self, h: Tensor, view: DenseLayerView) -> Tensor:
        h = F.dropout(h, self.dropout, self.training, self._rng)
        nbr_repr = h.index_select(view.repr_map)
        nbr_sum = F.segment_sum(nbr_repr, view.nbr_offsets, view.num_outputs)
        self_repr = h.narrow(view.self_start, view.num_outputs)
        combined = self_repr * (1.0 + self.eps) + nbr_sum
        out = (combined.matmul(self.w1) + self.b1).relu().matmul(self.w2) + self.b2
        if self.activation == "relu":
            out = out.relu()
        elif self.activation == "tanh":
            out = out.tanh()
        return out


class GCNLayer(Module):
    """Kipf-Welling style convolution adapted to sampled neighborhoods.

    Uses symmetric-free normalization ``(h_v + sum_u h_u) / (|N(v)| + 1)``
    followed by a single weight matrix, the standard sampled-GCN variant.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: Optional[str] = "relu",
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.dropout = dropout
        self.weight = self.register_parameter("weight", glorot_uniform((in_dim, out_dim), rng))
        self.bias = self.register_parameter("bias", zeros_init((out_dim,)))
        self._rng = rng or np.random.default_rng()

    def forward(self, h: Tensor, view: DenseLayerView) -> Tensor:
        h = F.dropout(h, self.dropout, self.training, self._rng)
        nbr_repr = h.index_select(view.repr_map)
        nbr_sum = F.segment_sum(nbr_repr, view.nbr_offsets, view.num_outputs)
        self_repr = h.narrow(view.self_start, view.num_outputs)
        counts = F.segment_counts(view.nbr_offsets, len(view.repr_map)).astype(np.float32)
        norm = Tensor(1.0 / (counts + 1.0)[:, None])
        out = (nbr_sum + self_repr) * norm
        out = out.matmul(self.weight) + self.bias
        if self.activation == "relu":
            out = out.relu()
        elif self.activation == "tanh":
            out = out.tanh()
        return out


class GATLayer(Module):
    """Graph attention layer (Velickovic et al. 2018) over a DENSE view.

    Attention coefficients are computed per (node, neighbor) pair and
    normalized with a *segment softmax* over each node's contiguous neighbor
    run; the node's self-loop participates in the softmax, matching standard
    GAT. Multi-head attention averages head outputs (the paper uses GAT as its
    "computationally expensive" model in Table 5).
    """

    def __init__(self, in_dim: int, out_dim: int, num_heads: int = 1,
                 activation: Optional[str] = "relu", dropout: float = 0.0,
                 negative_slope: float = 0.2,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.num_heads = num_heads
        self.activation = activation
        self.dropout = dropout
        self.negative_slope = negative_slope
        rng = rng or np.random.default_rng()
        self._rng = rng
        self.weights = []
        self.attn_l = []
        self.attn_r = []
        for head in range(num_heads):
            self.weights.append(self.register_parameter(f"w{head}", glorot_uniform((in_dim, out_dim), rng)))
            self.attn_l.append(self.register_parameter(f"al{head}", glorot_uniform((out_dim, 1), rng)))
            self.attn_r.append(self.register_parameter(f"ar{head}", glorot_uniform((out_dim, 1), rng)))
        self.bias = self.register_parameter("bias", zeros_init((out_dim,)))

    def _head(self, h: Tensor, view: DenseLayerView, head: int) -> Tensor:
        z = h.matmul(self.weights[head])
        z_self = z.narrow(view.self_start, view.num_outputs)
        z_nbr = z.index_select(view.repr_map)

        # a_l . z_j for neighbors, a_r . z_i for the destination node.
        s_nbr = z_nbr.matmul(self.attn_l[head]).reshape(len(view.repr_map))
        s_self_l = z_self.matmul(self.attn_l[head]).reshape(view.num_outputs)
        s_self_r = z_self.matmul(self.attn_r[head]).reshape(view.num_outputs)

        seg_ids = F.segment_ids_from_offsets(view.nbr_offsets, len(view.repr_map))
        e_nbr = (s_nbr + s_self_r.index_select(seg_ids)).leaky_relu(self.negative_slope)
        e_self = (s_self_l + s_self_r).leaky_relu(self.negative_slope)

        # Stable softmax over {neighbors of v} ∪ {v} per segment.
        seg_max = F.segment_max_detached(e_nbr.data, view.nbr_offsets)
        seg_max = np.maximum(seg_max, e_self.data)
        exp_nbr = (e_nbr - Tensor(seg_max[seg_ids])).exp()
        exp_self = (e_self - Tensor(seg_max)).exp()
        denom = F.segment_sum(exp_nbr, view.nbr_offsets, view.num_outputs) + exp_self
        denom = denom.clamp_min(1e-12)

        alpha_nbr = exp_nbr / denom.index_select(seg_ids)
        alpha_self = exp_self / denom
        weighted = z_nbr * alpha_nbr.reshape(len(view.repr_map), 1)
        aggr = F.segment_sum(weighted, view.nbr_offsets, view.num_outputs)
        return aggr + z_self * alpha_self.reshape(view.num_outputs, 1)

    def forward(self, h: Tensor, view: DenseLayerView) -> Tensor:
        h = F.dropout(h, self.dropout, self.training, self._rng)
        out = self._head(h, view, 0)
        for head in range(1, self.num_heads):
            out = out + self._head(h, view, head)
        if self.num_heads > 1:
            out = out * (1.0 / self.num_heads)
        out = out + self.bias
        if self.activation == "relu":
            out = out.relu()
        elif self.activation == "tanh":
            out = out.tanh()
        return out


LAYER_REGISTRY = {
    "graphsage": GraphSageLayer,
    "graphsage-pool": PoolGraphSageLayer,
    "gcn": GCNLayer,
    "gat": GATLayer,
    "gin": GINLayer,
}


def make_layer(kind: str, in_dim: int, out_dim: int, **kwargs) -> Module:
    """Construct a GNN layer by registry name (``graphsage``/``gcn``/``gat``)."""
    try:
        cls = LAYER_REGISTRY[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown GNN layer kind {kind!r}; expected one of {sorted(LAYER_REGISTRY)}")
    return cls(in_dim, out_dim, **kwargs)
