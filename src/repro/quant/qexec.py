"""Quantized forward execution.

Runs a trained model under a :class:`QuantizationScheme`, applying fixed
point exactly where the FPGA datapath does:

* parameters are quantized at load time (``weights`` format; biases live
  in the accumulator, so they use the ``arithmetic`` format),
* every multiply/accumulate result is quantized to the ``arithmetic``
  format,
* every layer output written back to memory is quantized to the
  ``intermediate`` format,
* softmax probabilities are quantized to the ``softmax`` format,
* non-linear units that the accelerator implements with dedicated
  hardware (ReLU, softmax, the division/sqrt inside layer norm) are
  evaluated exactly and re-quantized on output (paper Section III-D).

This is "fake quantization": values stay float64 but are snapped to the
representable grid, which is numerically identical to the integer
datapath for these word lengths.  Passing a ``rounding_mode`` runs every
GEMM on that integer datapath instead (:class:`repro.fpga.emu.EmulatedPE`).
"""

from __future__ import annotations

import numpy as np

from repro.backend import get_backend
from repro.models.tiny_vbf import TinyVbfNetwork
from repro.nn.layers.activations import ReLU, Softmax, Tanh, softmax
from repro.nn.layers.attention import MultiHeadAttention
from repro.nn.layers.base import Layer
from repro.nn.layers.container import Residual, Sequential
from repro.nn.layers.dense import Dense
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.embedding import LearnedPositionalEmbedding
from repro.nn.layers.layernorm import LayerNorm
from repro.nn.layers.patches import Patchify, Unpatchify
from repro.quant.schemes import QuantizationScheme


def _q(fmt, values: np.ndarray) -> np.ndarray:
    """Quantize with an optional format (None = float passthrough)."""
    if fmt is None:
        return values
    return fmt.quantize(values)


#: Quantized GEMM kernel -> (streamed, stationary) operand roles on the
#: emulated PE.
_GEMM_ROLES = {
    "matmul": ("intermediate", "weights"),
    "attention_scores": ("intermediate", "intermediate"),
    "attention_context": ("softmax", "intermediate"),
}


def _gemm(
    kernel: str,
    a: np.ndarray,
    b: np.ndarray,
    scheme: QuantizationScheme,
    rounding_mode: str | None,
    *scale: float,
) -> np.ndarray:
    """One quantized GEMM, landing on the ``arithmetic`` grid.

    With no ``rounding_mode`` (or no arithmetic format) this is the
    ambient backend's ``kernel``; otherwise the product runs on the
    integer PE emulator (:class:`repro.fpga.emu.EmulatedPE`) with the
    kernel's per-role operand formats and ``scale`` folded into the
    final rounding stage.
    """
    if rounding_mode is None or scheme.arithmetic is None:
        y = getattr(get_backend(), kernel)(a, b, *scale)
    else:
        # Lazy: repro.fpga imports this module.
        from repro.fpga.emu import EmulatedPE

        a_role, b_role = _GEMM_ROLES[kernel]
        pe = EmulatedPE(
            scheme.arithmetic,
            a_format=getattr(scheme, a_role),
            b_format=getattr(scheme, b_role),
            rounding_mode=rounding_mode,
        )
        if kernel == "attention_scores":
            b = np.swapaxes(b, -1, -2)
        y = pe.matmul(a, b, *scale)
    return _q(scheme.arithmetic, y)


def _dense(
    dense: Dense,
    x: np.ndarray,
    scheme: QuantizationScheme,
    rounding_mode: str | None,
) -> np.ndarray:
    """A Dense layer (or attention projection) under ``scheme``."""
    weight = _q(scheme.weights, dense.weight.value)
    y = _gemm("matmul", x, weight, scheme, rounding_mode)
    if dense.bias is not None:
        y = _q(scheme.arithmetic,
               y + _q(scheme.arithmetic, dense.bias.value))
    return _q(scheme.intermediate, y)


def quantized_forward(
    layer: Layer,
    x: np.ndarray,
    scheme: QuantizationScheme,
    rounding_mode: str | None = None,
) -> np.ndarray:
    """Evaluate ``layer`` on ``x`` under ``scheme`` (see module doc).

    ``rounding_mode`` (a :data:`repro.fpga.emu.ROUNDING_MODES` member)
    runs every GEMM on the emulated PE; ``None`` keeps the modeled
    path on the ambient backend.
    """
    if scheme.is_float:
        return layer.forward(x, training=False)

    def forward(child: Layer, value: np.ndarray) -> np.ndarray:
        return quantized_forward(child, value, scheme, rounding_mode)

    if isinstance(layer, Sequential):
        for child in layer.layers:
            x = forward(child, x)
        return x

    if isinstance(layer, Residual):
        return _q(scheme.intermediate, x + forward(layer.inner, x))

    if isinstance(layer, TinyVbfNetwork):
        x = _q(scheme.intermediate, x)
        pixel = forward(layer.pixel_encoder, x)
        context = forward(layer.context, pixel)
        if layer.config.use_pixel_skip:
            combined = np.concatenate([pixel, context], axis=-1)
        else:
            combined = context
        return forward(layer.head, combined)

    if isinstance(layer, Dense):
        return _dense(layer, x, scheme, rounding_mode)

    if isinstance(layer, MultiHeadAttention):
        return _quantized_attention(layer, x, scheme, rounding_mode)

    if isinstance(layer, LayerNorm):
        gamma = _q(scheme.weights, layer.gamma.value)
        beta = _q(scheme.arithmetic, layer.beta.value)
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalized = (x - mean) / np.sqrt(var + layer.eps)
        return _q(scheme.intermediate, gamma * normalized + beta)

    if isinstance(layer, ReLU):
        return np.maximum(x, 0.0)

    if isinstance(layer, Tanh):
        return _q(scheme.intermediate, np.tanh(x))

    if isinstance(layer, Softmax):
        return _q(scheme.softmax, softmax(x, axis=layer.axis))

    if isinstance(layer, LearnedPositionalEmbedding):
        embedding = _q(scheme.weights, layer.embedding.value)
        return _q(scheme.intermediate, x + embedding)

    if isinstance(layer, (Patchify, Unpatchify, Dropout)):
        # Pure data movement (dropout is identity at inference).
        return layer.forward(x, training=False)

    raise TypeError(
        f"no quantized execution rule for {type(layer).__name__}"
    )


def _quantized_attention(
    layer: MultiHeadAttention,
    x: np.ndarray,
    scheme: QuantizationScheme,
    rounding_mode: str | None,
) -> np.ndarray:
    """MHA under quantization: Figs. 6-8 of the paper's accelerator."""
    q, k, v = (
        layer._split_heads(_dense(dense, x, scheme, rounding_mode))
        for dense in (layer.query, layer.key, layer.value)
    )
    scale = 1.0 / np.sqrt(layer.head_dim)
    scores = _gemm("attention_scores", q, k, scheme, rounding_mode, scale)
    attention = _q(scheme.softmax, softmax(scores, axis=-1))
    context = _gemm("attention_context", attention, v, scheme,
                    rounding_mode)
    merged = layer._merge_heads(context)
    return _dense(layer.output, merged, scheme, rounding_mode)


#: ``pe=`` knob values -> :mod:`repro.fpga.emu` rounding modes.  ``None``
#: keeps the modeled (fake-quantized) float path; ``"emu"`` runs the
#: round-at-the-end integer pipeline; ``"emu-per-level"`` the legacy
#: per-level-rounding tree.
PE_MODES: dict[str | None, str | None] = {
    None: None,
    "emu": "round_at_end",
    "emu-per-level": "per_level",
}


def resolve_pe_mode(pe: str | None) -> str | None:
    """Validate a ``pe=`` knob value, returning its rounding mode."""
    if pe not in PE_MODES:
        known = ", ".join(repr(key) for key in PE_MODES)
        raise ValueError(f"pe must be one of {known}, got {pe!r}")
    return PE_MODES[pe]


class QuantizedModel:
    """A trained model bound to a quantization scheme.

    ``pe`` selects the execution substrate: ``None`` (default) keeps
    the modeled fake-quantized path; ``"emu"`` / ``"emu-per-level"``
    run every quantized GEMM on the bit-accurate integer PE emulator
    (:mod:`repro.fpga.emu`).  The mode is a plain attribute passed down
    :func:`quantized_forward`, so it travels with the (picklable) model
    and no thread or process can observe another's.
    """

    def __init__(
        self, model, scheme: QuantizationScheme, pe: str | None = None
    ) -> None:
        self.model = model
        self.scheme = scheme
        self._pe_mode = resolve_pe_mode(pe)
        self.pe = pe

    def forward(self, x: np.ndarray) -> np.ndarray:
        return quantized_forward(self.model.root, np.asarray(x, float),
                                 self.scheme, self._pe_mode)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)
