"""Learnable sub-networks.

Per-view mappers lift raw features into a shared width, a common extractor
and per-view specific extractors produce the two representations, a
discriminator guesses the source view of common representations, a
prediction head supervises the common subspace, evidence heads emit
non-negative per-class evidence, and three small square matrices drive the
inter-view attention.  Each view also carries a support radius, fitted on
the training rows, that caps evidence on inputs far outside them.  Forward
passes on shared read-only parameters are safe concurrently; mutation
belongs to the training loop.

Each sub-network call is one ``autodiff.dense`` node, and a view's mapper
and the common extractor after it make one node together.  The discriminator
runs once per training step and returns two nodes over that forward pass:
one for its own cross-entropy, whose adjoints reach only its parameters,
and one for the encoders' confusion term, whose adjoints reach only the
common codes.
"""

from __future__ import annotations

import json
import tokenize
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError
from .schema import CHECKPOINT_FORMAT, RULES, build, check, check_fields, json_object, naming

SUPPORT_RADIUS_ENTRY = "__support_radius__"
# the hidden width of the discriminator and of every evidence head
HIDDEN_WIDTH = 64


class Mlp:
    """Dense layers with uniform fan-in initialization (+-1/sqrt(fan_in)).

    ``widths`` lists the layer widths, input first; hidden layers are ReLU
    and ``output`` is the ``autodiff.Activation`` of the last layer
    (``RELU``, ``SOFTMAX_ROWS`` or ``SIGMOID``).  A forward pass is one
    ``autodiff.dense`` node over the input and every weight and bias.
    """

    def __init__(self, widths, output, seed):
        self.output = output
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(ad.Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out))))
            self.biases.append(ad.Tensor(rng.uniform(-bound, bound, size=fan_out)))

    def forward(self, x, split=False):
        """The layers over ``x``; ``split`` as in ``autodiff.dense``."""
        return ad.dense(x, self.weights, self.biases, self.output, split=split)

    def named_params(self, prefix):
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"{prefix}.w{i}", w))
            out.append((f"{prefix}.b{i}", b))
        return out


@dataclass(frozen=True)
class ModelSpec:
    """Shape table for the full model; the parameter count follows from it,
    and ``schema.RULES`` says what each field holds."""

    view_dims: tuple
    n_classes: int
    subspace_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "view_dims", tuple(self.view_dims))

    @property
    def n_views(self):
        return len(self.view_dims)


def _part_layout(spec):
    """Each part's checkpoint prefix -> (layer widths, output op), in seed order."""
    v, l, q = spec.n_views, spec.subspace_dim, spec.n_classes
    relu = ad.RELU
    evidence = (l, HIDDEN_WIDTH, q)
    return {
        **{f"mapper{i}": ((d, l), relu) for i, d in enumerate(spec.view_dims)},
        "common": ((l, l), relu),
        **{f"specific{i}": ((d, l), relu) for i, d in enumerate(spec.view_dims)},
        "disc": ((l, HIDDEN_WIDTH, v), ad.SOFTMAX_ROWS),
        "pred": ((l, q), ad.SIGMOID),
        "ev_common": (evidence, relu),
        **{f"ev_specific{i}": (evidence, relu) for i in range(v)},
    }


def view_energy(x):
    """Per-row mean squared feature ``m(x) = mean(x**2)`` of one view's rows."""
    return np.square(x).sum(axis=-1) / x.shape[-1]


class Model:
    """All learnable parameters plus the forward passes of each sub-network.

    ``parts`` maps each sub-network's checkpoint prefix (``mapper0`` to
    ``ev_specific{v-1}``) to its ``Mlp``, in seed order; the attention
    matrices ``w_query``, ``w_key`` and ``w_value`` come last.

    ``support_radius`` holds one number per view: the largest ``view_energy``
    over the rows the model was trained on (``inf``, i.e. no cap, until
    ``fit_support`` runs).  It is a plain array, not a parameter, so it is
    not in ``named_params`` and the optimizer never touches it.  ReLU
    mappers and evidence heads grow evidence roughly linearly with the input
    norm far from the data, so a heavily corrupted view would otherwise come
    out *more* certain than a clean one; ``support_gate`` turns the radius
    into per-row evidence caps that are exactly 1 on every training row.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        v = spec.n_views
        seeds = np.random.SeedSequence(spec.seed).generate_state(3 * v + 6)
        s = iter(int(x) for x in seeds)
        self.parts = {prefix: Mlp(widths, output, next(s))
                      for prefix, (widths, output) in _part_layout(spec).items()}
        rng = np.random.default_rng(np.random.SeedSequence(next(s)))
        bound = 1.0 / np.sqrt(v)
        self.w_query = ad.Tensor(rng.uniform(-bound, bound, size=(v, v)))
        self.w_key = ad.Tensor(rng.uniform(-bound, bound, size=(v, v)))
        self.w_value = ad.Tensor(rng.uniform(-bound, bound, size=(v, v)))
        self.support_radius = np.full(v, np.inf)

    # -- forward passes -----------------------------------------------------

    def encode_common(self, x, view):
        """Common-subspace representation of view ``view`` features: the
        view's mapper and then the common extractor, as one dense node."""
        mapper, common = self.parts[f"mapper{view}"], self.parts["common"]
        return ad.dense(x, mapper.weights + common.weights, mapper.biases + common.biases,
                        common.output)

    def encode_specific(self, x, view):
        """View-specific representation of view ``view`` features."""
        return self.parts[f"specific{view}"].forward(x)

    def discriminate(self, c):
        """Row-softmax view probabilities for common representations, from one
        forward pass, as two nodes: the first passes adjoints only to the
        discriminator's parameters (for its own cross-entropy), the second
        only to ``c`` (for the encoders' confusion term)."""
        return self.parts["disc"].forward(c, split=True)

    def predict_common(self, c):
        """Per-class sigmoid outputs of the common prediction head."""
        return self.parts["pred"].forward(c)

    def evidence_from_common(self, c):
        return self.parts["ev_common"].forward(c)

    def evidence_from_specific(self, s, view):
        return self.parts[f"ev_specific{view}"].forward(s)

    # -- training support ---------------------------------------------------

    def fit_support(self, views):
        """Record each view's support radius: the largest row energy in ``views``."""
        self.support_radius = np.array([view_energy(x).max() for x in views], dtype=np.float64)

    def support_gate(self, views):
        """(n, v) evidence caps ``kappa_i = min(1, r_i / m_i(x))`` for raw view arrays.

        Rows whose energy lies within the radius (every training row) get
        exactly 1; a constant training view (``r_i = 0``) or an all-zero row
        gives no division by zero.
        """
        m = np.concatenate([view_energy(x)[:, None] for x in views], axis=1)
        r = np.broadcast_to(self.support_radius, m.shape)
        return np.divide(r, m, out=np.ones_like(m), where=m > r)

    # -- parameter bookkeeping ----------------------------------------------

    def named_params(self):
        """(checkpoint entry, tensor) pairs: each part's layers in table order, then attention."""
        out = [pair for prefix, mlp in self.parts.items() for pair in mlp.named_params(prefix)]
        attention = [("attn.w_query", self.w_query), ("attn.w_key", self.w_key),
                     ("attn.w_value", self.w_value)]
        return out + attention

    def trainable_params(self, uniform_attention=False):
        """Parameters that actually receive gradients under the given switches."""
        skip = {"attn.w_query", "attn.w_key"} if uniform_attention else set()
        return [t for name, t in self.named_params() if name not in skip]

    # -- checkpoint io --------------------------------------------------------

    def save(self, path, extra_meta=None):
        """Write a versioned .npz checkpoint: parameter arrays, support radius, JSON headers."""
        arrays = {name: t.data for name, t in self.named_params()}
        arrays[SUPPORT_RADIUS_ENTRY] = self.support_radius
        arrays["__format__"] = np.array(CHECKPOINT_FORMAT)
        arrays["__spec__"] = np.array(json.dumps(asdict(self.spec), sort_keys=True))
        arrays["__meta__"] = np.array(json.dumps(extra_meta or {}, sort_keys=True))
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path):
        """Rebuild a model from ``save`` output; returns (model, extra_meta)."""
        try:
            bundle = np.load(path, allow_pickle=False)
        except ValueError:  # neither npz nor npy: np.load took it for a pickle
            bundle = None
        if not isinstance(bundle, np.lib.npyio.NpzFile):
            raise ContractError(f"{path}: not an npz checkpoint")
        with bundle, naming(path):

            def entry(name, shape=(), rule=None):
                """Entry ``name``, of ``shape`` and every element obeying ``rule``; an
                object array is refused, not unpickled, and a damaged entry is
                named with numpy's reason."""
                if name not in bundle.files:
                    raise ContractError(f"{name}: missing")
                try:
                    value = bundle[name]
                except (ValueError, MemoryError, tokenize.TokenError, zipfile.BadZipFile) as err:
                    raise ContractError(f"{name}: cannot be read: {err}") from None
                if not isinstance(value, np.ndarray):  # a member without the npy magic
                    raise ContractError(f"{name}: is not an npy array")
                if value.shape != shape:
                    raise ContractError(f"{name}: has shape {value.shape}, expected {shape}")
                if rule and not rule.admits(value):
                    raise ContractError(f"{name}: every element must be {rule.describe()}")
                return value

            check("__format__", str(entry("__format__")))
            spec_text, meta_text = str(entry("__spec__")), str(entry("__meta__"))
            with naming("__spec__"):
                spec = build(ModelSpec, json_object(spec_text))
            # every weight shape the spec implies, read before any draw allocates it
            arrays = {f"{prefix}.w{i}": entry(f"{prefix}.w{i}", shape, RULES["parameter"])
                      for prefix, (widths, _) in _part_layout(spec).items()
                      for i, shape in enumerate(zip(widths[:-1], widths[1:]))}
            model = cls(spec)
            for name, tensor in model.named_params():
                if name not in arrays:
                    arrays[name] = entry(name, tensor.data.shape, RULES["parameter"])
                tensor.data = arrays[name].astype(np.float64)
            radius = entry(SUPPORT_RADIUS_ENTRY, (spec.n_views,), RULES[SUPPORT_RADIUS_ENTRY])
            model.support_radius = radius.astype(np.float64)
            with naming("__meta__"):
                meta = json_object(meta_text)
        return model, meta
