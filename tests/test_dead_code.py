"""No public function, class, method or property of ``mvtrust`` that only
the tests run.

Each public function and class of every ``src/mvtrust`` module, and each
public method and property of those classes, must be named somewhere in
``src/mvtrust`` (a name, an attribute or an import), be exported in
``mvtrust.__all__``, be a target that ``perfbench/tracing.py`` wraps, or be
named in ``perfbench/*.py``, which runs the package as its benchmark.  Code
that none of these reach is dead to the package, however well tested it is.

Each module-level private function and class (``_name``, not a dunder) must
be named, as a name or an attribute, in ``src/mvtrust`` outside its own
definition.
"""

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import mvtrust
from test_tracing import TRACING, _load_tracing

SRC = Path(mvtrust.__file__).parent


def _names_used_in(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _public(namespace):
    return [(name, obj) for name, obj in vars(namespace).items() if not name.startswith("_")]


def _checked():
    """(label, name, object) of every function, class, method and property
    this test covers."""
    for info in pkgutil.iter_modules([str(SRC)]):
        module = importlib.import_module(f"mvtrust.{info.name}")
        for name, obj in _public(module):
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue
            yield f"{module.__name__}.{name}", name, obj
            for attr, member in _public(obj) if inspect.isclass(obj) else ():
                if inspect.isfunction(member) or isinstance(
                        member, (property, classmethod, staticmethod)):
                    yield f"{module.__name__}.{name}.{attr}", attr, member


def test_every_function_has_a_use_outside_the_tests():
    checked = list(_checked())
    labels = {label for label, _, _ in checked}
    assert {"mvtrust.losses.h1_loss", "mvtrust.special.polygamma_pass",
            "mvtrust.opinions.conflict_degree", "mvtrust.autodiff.Tensor.activate",
            "mvtrust.autodiff.Tensor.shape", "mvtrust.pipeline.TrainedModel.load",
            "mvtrust.schema.Rule", "mvtrust.data.StandardStats.apply"} <= labels
    used = _names_used_in(SRC.glob("*.py")) | _names_used_in(TRACING.parent.glob("*.py"))
    exported = {getattr(mvtrust, name) for name in mvtrust.__all__}
    traced = {owner.__dict__[attr] for _, owner, attr in _load_tracing().TARGETS}
    dead = [label for label, name, obj in checked
            if name not in used and obj not in exported and obj not in traced]
    assert not dead, f"no caller in src/ or perfbench/, not exported, not traced: {dead}"


def _uses(tree):
    """Counter of the names and attributes named in ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_private_helper_has_a_use():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_uses(tree) for tree in trees.values()), Counter())
    helpers = [(f"mvtrust.{module}.{node.name}", node) for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    assert {"mvtrust.autodiff._makes_node", "mvtrust.autodiff._GradMode",
            "mvtrust.losses._masked_kl"} <= {label for label, _ in helpers}
    dead = [label for label, node in helpers if used[node.name] <= _uses(node)[node.name]]
    assert not dead, f"named nowhere in src/ outside their own definition: {dead}"
