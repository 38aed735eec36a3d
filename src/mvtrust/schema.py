"""What every value read from outside must be, and the one reader of a JSON object.

``RULES`` holds one rule per field name: the manifest's keys and view
entries, the ``TrainConfig`` and ``ModelSpec`` fields (a name both have, such
as ``seed``, has one rule), the other API arguments and flags, and the
checkpoint's entries, ``__meta__`` keys and statistics.  ``check`` rejects a
value as ``<key>: <what is wrong>``; ``naming`` puts the file (and the entry
of a key inside a checkpoint entry) in front: ``<file>: <key>: <what is wrong>``.
"""

from __future__ import annotations

import json
import math
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ContractError

MANIFEST_FORMAT = "mvtrust-dataset/1"
CHECKPOINT_FORMAT = "mvtrust-checkpoint/1"
_NOUNS = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string",
          list: "a list", dict: "a JSON object"}
_TYPES = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


@dataclass(frozen=True)
class Rule:
    """A value of type ``kind`` (a bool is no number), or equal to ``kind``
    when that is a string.  A number lies in [least, most], or in (least,
    most) when ``open``; a float is never NaN, and is finite when ``finite``.
    A float rule also admits a real-dtype array whose every element it admits.
    ``null`` admits None too; ``each`` asks for a non-empty list of such values."""

    kind: object
    least: float = -math.inf
    most: float = math.inf
    open: bool = False
    finite: bool = True
    null: bool = False
    each: bool = False

    def describe(self, length=None):
        if self.each:
            item = replace(self, each=False).describe()
            return f"a list of {length or 'one or more'} items, each {item}"
        if isinstance(self.kind, str):
            return repr(self.kind)
        what = _NOUNS[self.kind] if self.finite else "a number"
        if self.most < math.inf:
            left, right = "()" if self.open else "[]"
            what += f" in {left}{self.least:g}, {self.most:g}{right}"
        elif self.least > -math.inf:
            what += f" {'>' if self.open else '>='} {self.least:g}"
        return what + (" or null" if self.null else "")

    def admits(self, value):
        """Whether ``value`` obeys the rule; a list rule is ``check``'s."""
        if value is None or isinstance(self.kind, str):
            return self.null if value is None else value == self.kind
        if isinstance(value, np.ndarray):
            return self.kind is float and value.dtype.kind in "iuf" and self._within(value).all()
        if isinstance(value, (bool, np.bool_)) != (self.kind is bool):
            return False
        return isinstance(value, _TYPES.get(self.kind, self.kind)) and (
            self.kind not in _TYPES or bool(self._within(value)))

    def _within(self, x):
        """The bounds, elementwise for an array; NaN compares false, and
        Python compares a huge int exactly."""
        if self.open:
            low, high = x > self.least, x < self.most
        else:
            low, high = x >= self.least, x <= self.most
        finite = (-math.inf < x) & (x < math.inf) if self.kind is float and self.finite else True
        return low & high & finite


RULES = {
    # the dataset manifest, and each entry of its "views" list
    "format": Rule(MANIFEST_FORMAT),
    "n_classes": Rule(int, least=2),
    "views": Rule(dict, each=True),
    **dict.fromkeys(("labels", "path", "name"), Rule(str)),
    # TrainConfig and ModelSpec fields; the two share subspace_dim and seed
    "view_dims": Rule(int, least=1, each=True),
    **dict.fromkeys(("subspace_dim", "epochs", "anneal_epochs"), Rule(int, least=1)),
    "batch_size": Rule(int, least=1, null=True),
    "seed": Rule(int, least=0),
    **dict.fromkeys(("gamma", "delta", "eta", "weight_decay"), Rule(float, least=0)),
    "learning_rate": Rule(float, least=0, open=True),
    "train_fraction": Rule(float, least=0, most=1, open=True),
    **dict.fromkeys(("bypass_h1", "uniform_attention"), Rule(bool)),
    # synthesize and corruption arguments, and the counts and tolerance of train and gradcheck
    "separation": Rule(float),
    "fraction": Rule(float, least=0, most=1),
    **dict.fromkeys(("sigma", "tol"), Rule(float, least=0, open=True)),
    "sigmas": Rule(float, least=0, each=True),
    "corrupt_views": Rule(int, least=0, each=True),
    **dict.fromkeys(("trials", "seeds"), Rule(int, least=1)),
    # checkpoint entries, __meta__ keys, and one view's standardization row
    "__format__": Rule(CHECKPOINT_FORMAT),
    "parameter": Rule(float),
    "__support_radius__": Rule(float, least=0, finite=False),
    **dict.fromkeys(("config", "stats"), Rule(dict)),
    "means": Rule(float, each=True),
    "stds": Rule(float, least=0, each=True),
}


def check(key, value, rule=None, length=None):
    """``value`` if it obeys ``rule`` (by default ``RULES[key]``; a list rule
    with ``length`` items), else a ContractError naming ``key``, or
    ``key[i]`` for the first bad item of a list."""
    rule = rule or RULES[key]
    listed = isinstance(value, (list, tuple)) and len(value) > 0 and length in (None, len(value))
    if rule.each and listed:
        item = replace(rule, each=False)
        for i, v in enumerate(value):
            check(f"{key}[{i}]", v, item)
    elif rule.each or not rule.admits(value):
        raise ContractError(f"{key}: must be {rule.describe(length)}, got {reprlib.repr(value)}")
    return value


def check_fields(instance):
    """Check each field of the dataclass ``instance`` against its rule."""
    for f in fields(instance):
        check(f.name, getattr(instance, f.name))


def _object(payload):
    if not isinstance(payload, dict):
        raise ContractError(f"must be a JSON object, got {type(payload).__name__}")
    return payload


def field(payload, key):
    """``payload[key]`` of the JSON object ``payload``."""
    if key not in _object(payload):
        raise ContractError(f"{key}: missing")
    return payload[key]


def check_object(payload, names, optional=(), closed=False):
    """``payload`` if it is a JSON object holding each of ``names`` but the
    ``optional`` ones, each obeying its rule, and, if ``closed``, no other key."""
    for key in _object(payload):
        if closed and key not in names:
            raise ContractError(f"{key}: unknown key")
    for key in names:
        if key in payload or key not in optional:
            check(key, field(payload, key))
    return payload


def build(cls, payload, optional=False):
    """``cls(**payload)`` for a JSON object ``payload`` whose keys are fields
    of dataclass ``cls``, each present unless ``optional``."""
    names = [f.name for f in fields(cls)]
    return cls(**check_object(payload, names, names if optional else (), closed=True))


@contextmanager
def naming(*where, error=None):
    """Put ``where`` in front of a ContractError raised inside, as ``error`` if
    given: ``naming(path, "__spec__")`` makes it ``<path>: __spec__: ...``."""
    try:
        yield
    except ContractError as exc:
        raise (error or type(exc))(": ".join(map(str, (*where, exc)))) from None


def read_text(path):
    """The text of the UTF-8 file ``path``; read it inside ``naming(path)``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ContractError(f"file is not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise ContractError(exc.strerror or str(exc)) from None


def json_object(text):
    """The JSON object that ``text`` holds."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContractError(f"invalid JSON ({exc})") from None
    return _object(value)
