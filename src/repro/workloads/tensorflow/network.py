"""Neural-network layers and the quantized inference engine (Section 5).

Layers are described by their shapes; convolution is lowered to GEMM via
im2col exactly as TensorFlow Mobile does (Conv2D of a HxWxC input with
KxKxCxF filters becomes a (out_h*out_w, K*K*C) x (K*K*C, F) GEMM).

Two uses:

* **functional**: :func:`infer` runs a real quantized forward pass
  (quantize -> pack -> GEMM -> requantize per layer) on small inputs --
  this is what the correctness tests exercise;
* **analytic**: :func:`network_functions` produces the workload
  decomposition (Packing / Quantization / Conv2D+MatMul / Other) used by
  the Figure 6 and 7 harnesses, with traffic computed from layer shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro._sum import left_sum
from repro.core.workload import WorkloadFunction, shared_in_run
from repro.sim.profile import KernelProfile
from repro.workloads.tensorflow.gemm import profile_gemm, quantized_gemm
from repro.workloads.tensorflow.packing import (
    profile_packing,
    profile_unpacking,
)
from repro.workloads.tensorflow.quantization import (
    QuantizedTensor,
    dequantize_tensor,
    profile_quantization,
    profile_requantization,
    quantize_tensor,
    requantize,
)

if TYPE_CHECKING:  # annotation-only; the kernels import NumPy in their bodies
    import numpy as np

MB = 1024 * 1024


@dataclass(frozen=True)
class ConvLayer:
    """A 2-D convolution layer (square kernel, same stride both ways)."""

    name: str
    in_h: int
    in_w: int
    in_c: int
    out_c: int
    kernel: int
    stride: int = 1
    padding: int = 0

    @property
    def out_h(self) -> int:
        return (self.in_h + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.in_w + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def gemm_dims(self) -> tuple[int, int, int]:
        """(M, K, N) of the lowered GEMM."""
        return (
            self.out_h * self.out_w,
            self.kernel * self.kernel * self.in_c,
            self.out_c,
        )

    @property
    def input_elements(self) -> int:
        return self.in_h * self.in_w * self.in_c

    @property
    def output_elements(self) -> int:
        return self.out_h * self.out_w * self.out_c

    @property
    def macs(self) -> float:
        m, k, n = self.gemm_dims
        return float(m) * k * n


@dataclass(frozen=True)
class FcLayer:
    """A fully-connected (MatMul) layer."""

    name: str
    in_features: int
    out_features: int

    @property
    def gemm_dims(self) -> tuple[int, int, int]:
        return (1, self.in_features, self.out_features)

    @property
    def input_elements(self) -> int:
        return self.in_features

    @property
    def output_elements(self) -> int:
        return self.out_features

    @property
    def macs(self) -> float:
        return float(self.in_features) * self.out_features


Layer = "ConvLayer | FcLayer"


@dataclass(frozen=True)
class Network:
    """An inference graph: an ordered list of GEMM-backed layers."""

    name: str
    layers: tuple

    @property
    def num_conv2d(self) -> int:
        return sum(1 for layer in self.layers if isinstance(layer, ConvLayer))

    @property
    def total_macs(self) -> float:
        return left_sum(layer.macs for layer in self.layers)


# ----------------------------------------------------------------------
# Functional path (used on small inputs by the tests / examples)
# ----------------------------------------------------------------------
def im2col(
    x: np.ndarray, kernel: int, stride: int = 1, padding: int = 0, pad_value=0
) -> np.ndarray:
    """Lower a HxWxC tensor to the (out_h*out_w, k*k*C) patch matrix.

    ``pad_value`` fills the border when ``padding > 0``; quantized callers
    must pass their zero point so padding represents a real zero.
    """
    import numpy as np

    if x.ndim != 3:
        raise ValueError("im2col expects a HxWxC tensor")
    h, w, c = x.shape
    if padding:
        x = np.pad(
            x,
            ((padding, padding), (padding, padding), (0, 0)),
            constant_values=pad_value,
        )
        h, w = x.shape[:2]
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel %d does not fit input %dx%d" % (kernel, h, w))
    rows = np.empty((out_h * out_w, kernel * kernel * c), dtype=x.dtype)
    idx = 0
    for oy in range(out_h):
        for ox in range(out_w):
            patch = x[
                oy * stride : oy * stride + kernel,
                ox * stride : ox * stride + kernel,
                :,
            ]
            rows[idx] = patch.reshape(-1)
            idx += 1
    return rows


def conv2d_quantized(
    x: np.ndarray, weights: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """A full quantized Conv2D: quantize -> im2col -> GEMM -> requantize.

    Args:
        x: float32 input, HxWxC.
        weights: float32 filters, k x k x C x F.

    Returns:
        float32 output (out_h, out_w, F), after dequantizing the uint8
        result (so callers can chain layers / compare against a float
        reference within quantization error).
    """
    if weights.ndim != 4:
        raise ValueError("weights must be k x k x C x F")
    kernel = weights.shape[0]
    if weights.shape[1] != kernel:
        raise ValueError("only square kernels are supported")
    if weights.shape[2] != x.shape[2]:
        raise ValueError("channel mismatch")
    f = weights.shape[3]
    xq = quantize_tensor(x)
    wq = quantize_tensor(weights)
    patches = im2col(xq.values, kernel, stride, padding, pad_value=xq.zero_point)
    lhs = QuantizedTensor(values=patches, scale=xq.scale, zero_point=xq.zero_point)
    rhs = QuantizedTensor(
        values=wq.values.reshape(-1, f), scale=wq.scale, zero_point=wq.zero_point
    )
    acc = quantized_gemm(lhs, rhs)
    out_q = requantize(acc, xq.scale * wq.scale)
    h = (x.shape[0] + 2 * padding - kernel) // stride + 1
    w = (x.shape[1] + 2 * padding - kernel) // stride + 1
    return dequantize_tensor(out_q).reshape(h, w, f)


def infer(network: Network, x: np.ndarray, rng: np.random.Generator | None = None):
    """Run a full (random-weight) quantized forward pass of ``network``.

    Weights are generated deterministically from the layer name; intended
    for small test networks, not the full paper models.
    """
    import numpy as np

    rng = rng or np.random.default_rng(0)
    activations = np.asarray(x, dtype=np.float32)
    for layer in network.layers:
        if isinstance(layer, ConvLayer):
            weights = rng.standard_normal(
                (layer.kernel, layer.kernel, layer.in_c, layer.out_c)
            ).astype(np.float32)
            activations = conv2d_quantized(
                activations, weights, stride=layer.stride, padding=layer.padding
            )
            activations = np.maximum(activations, 0.0)  # ReLU
        elif isinstance(layer, FcLayer):
            flat = activations.reshape(1, -1)
            if flat.shape[1] != layer.in_features:
                raise ValueError(
                    "layer %s expects %d features, got %d"
                    % (layer.name, layer.in_features, flat.shape[1])
                )
            weights = rng.standard_normal(
                (layer.in_features, layer.out_features)
            ).astype(np.float32)
            xq = quantize_tensor(flat)
            wq = quantize_tensor(weights)
            acc = quantized_gemm(xq, wq)
            out_q = requantize(acc, xq.scale * wq.scale)
            activations = dequantize_tensor(out_q)
        else:
            raise TypeError("unknown layer type %r" % (layer,))
    return activations


# ----------------------------------------------------------------------
# Analytic path (Figures 6/7)
# ----------------------------------------------------------------------
@shared_in_run
def network_functions(network: Network) -> list[WorkloadFunction]:
    """Decompose one inference into the paper's four buckets.

    Packing = gemmlowp pack of both GEMM operands plus unpack of the
    int32 result; Quantization = input quantization plus result
    requantization (one pair per Conv2D/MatMul, Figure 8); Conv2D+MatMul
    = the GEMM kernels; Other = activation functions, pooling, and
    element-wise glue (each <1% individually).

    A layer's profiles depend only on its shape, and networks repeat
    shapes (the four paper networks have 760 layers but 65 shapes), so
    each distinct shape is profiled once per call.  Each bucket collects
    its per-layer profiles in layer order and is merged once, by
    :meth:`KernelProfile.folded`, which runs the floats of merging layer
    by layer in the same order without building a profile per layer;
    so the floats are exactly those of profiling and merging every
    layer.  Inside a :func:`repro.core.workload.run_scope` each network
    is decomposed once per run, however many figures read it.
    """
    by_shape = {}
    packing = []
    quantization = []
    gemm = []
    other_elements = 0.0
    for layer in network.layers:
        m, k, n = layer.gemm_dims
        shape = (m, k, n, layer.input_elements)
        profiles = by_shape.get(shape)
        if profiles is None:
            profiles = by_shape[shape] = (
                profile_packing(float(m * k + k * n)).merged(
                    profile_unpacking(float(m * n)), name="packing"
                ),
                profile_quantization(float(layer.input_elements)).merged(
                    profile_requantization(float(m * n)), name="quantization"
                ),
                profile_gemm(m, k, n),
            )
        lp, lq, lg = profiles
        packing.append(lp)
        quantization.append(lq)
        gemm.append(lg)
        other_elements += layer.output_elements
    if not packing:
        raise ValueError("network %s has no layers" % network.name)
    # Other: bias add, batch norm, ReLU, pooling, residual adds -- about
    # four element-wise passes over each layer's activations.
    other = KernelProfile.streaming(
        name="other",
        bytes_read=other_elements * 4.0,
        bytes_written=other_elements * 4.0,
        ops_per_byte=1.0,
        instruction_overhead=0.3,
        simd_fraction=0.5,
        notes="bias/BN/ReLU/pool/residual element-wise glue",
    )
    return [
        WorkloadFunction(
            "packing",
            KernelProfile.folded(packing, name="packing"),
            accelerator_key="packing",
            invocations=max(len(network.layers), 1),
        ),
        WorkloadFunction(
            "quantization",
            KernelProfile.folded(quantization, name="quantization"),
            accelerator_key="quantization",
            invocations=max(2 * network.num_conv2d, 1),
        ),
        WorkloadFunction("conv2d_matmul", KernelProfile.folded(gemm, name="conv2d_matmul")),
        WorkloadFunction("other", other),
    ]
