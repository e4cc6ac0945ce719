"""The TensorFlow Mobile workload (paper Section 5).

Inference on quantized neural networks built on a gemmlowp-style
low-precision GEMM stack:

* :mod:`.quantization` -- float32/int32 <-> uint8 quantization and the
  post-GEMM requantization pass (PIM target);
* :mod:`.packing` -- cache-friendly matrix packing/unpacking around the
  GEMM kernel (PIM target);
* :mod:`.gemm` -- the quantized GEMM kernel itself (stays on the CPU);
* :mod:`.network` -- layers, im2col convolution, and the inference
  engine;
* :mod:`.models` -- the four evaluated networks: VGG-19, ResNet-v2-152,
  Inception-ResNet-v2, and Residual-GRU;
* :mod:`.targets` -- PIM targets and workload decompositions for
  Figures 6, 7, and 19.
"""

from repro._lazy import lazy_exports

#: Public name table: defining module -> the names it exports.
_EXPORTS = {
    ".quantization": (
        "QuantizedTensor",
        "quantize_tensor",
        "dequantize_tensor",
        "requantize",
        "profile_quantization",
        "profile_requantization",
    ),
    ".packing": (
        "PackedMatrix",
        "pack_matrix",
        "unpack_matrix",
        "profile_packing",
        "profile_unpacking",
    ),
    ".gemm": ("quantized_gemm", "quantized_gemm_reference", "profile_gemm"),
    ".network": (
        "ConvLayer",
        "FcLayer",
        "Network",
        "im2col",
        "conv2d_quantized",
        "infer",
        "network_functions",
    ),
    ".models": (
        "vgg19",
        "resnet_v2_152",
        "inception_resnet_v2",
        "residual_gru",
        "all_models",
    ),
    ".access_patterns": ("gemm_lhs_trace", "pack_then_kernel_traffic"),
    ".targets": (
        "tensorflow_pim_targets",
        "packing_target",
        "quantization_target",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
