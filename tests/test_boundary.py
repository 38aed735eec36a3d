"""The boundary sweep: every input the CLI reads, broken rule by rule.

The key mutations come from ``schema.RULES``.  For each key's rule the sweep
drops the key, retypes its value (a bool, a string or null for a number, a
float for an integer, a number for a string, ...) and goes past its limits
(least - 1, NaN, +-inf).  This covers the dataset manifest and its view
entries, ``--config`` files, and the checkpoint's ``__spec__``, ``__meta__``
config and standardization statistics.  Every checkpoint entry, the view and
label files, and the paths themselves get their own damage.

The rule for all of them: the command exits 0, or it exits 2 with an error
that names the file and the key, entry or line.  It never exits 1.  A dropped
optional key or an added key that an open object allows gives exit 0; every
other mutation gives exit 2.

The same mutations, written as text, break each command-line flag that has a
rule: argparse rejects each with exit 2, naming the flag and the key, before
any file is read.  As Python values they break each argument of the Python
API that has a rule, which raises a ContractError naming the key.
"""

import contextlib
import dataclasses
import io
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from mvtrust.cli import _CONFIG_FLAGS
from mvtrust.cli import main as cli_main
from mvtrust.data import CorruptionSpec, save_dataset, synthesize
from mvtrust.errors import ContractError
from mvtrust.losses import lambda_schedule
from mvtrust.networks import ModelSpec
from mvtrust.pipeline import TrainConfig, run_noise_sweep
from mvtrust.schema import RULES

DROP = object()  # the mutation that deletes a key

# every TrainConfig key, small enough that a run with one key dropped is quick
BASE_CONFIG = {**TrainConfig().to_dict(), "subspace_dim": 4, "epochs": 1, "anneal_epochs": 1,
               "train_fraction": 0.5}
BASE_SPEC = {"view_dims": [5, 6], "n_classes": 2,
             **{f.name: BASE_CONFIG[f.name] for f in dataclasses.fields(ModelSpec)
                if f.name in BASE_CONFIG}}
BASE_MANIFEST = {"format": "mvtrust-dataset/1", "n_classes": 2, "labels": "labels.tsv",
                 "views": [{"name": "view0", "path": "view0.tsv"},
                           {"name": "view1", "path": "view1.tsv"}]}


def mutations(rule, base):
    """(label, value) pairs that each break ``rule`` once, ``base`` being a
    valid value; a list rule keeps ``base`` and breaks its first item."""
    cases = [("dropped", DROP)] + ([] if rule.null else [("null", None)])
    if rule.each:
        item = dataclasses.replace(rule, each=False)
        return cases + [("number", 5), ("empty", [])] + [
            (f"item-{label}", [value, *base[1:]])
            for label, value in mutations(item, base[0]) if value is not DROP]
    if isinstance(rule.kind, str):
        return cases + [("other-text", rule.kind + "x"), ("number", 1)]
    cases += {
        int: [("bool", True), ("string", "1"), ("float", float(rule.least))],
        float: [("bool", True), ("string", "1")],
        bool: [("int", 1), ("string", "true")],
        str: [("number", 5), ("bool", False)],
        dict: [("list", []), ("string", "x")],
    }[rule.kind]
    if rule.kind in (int, float):
        cases.append(("least-minus-1", rule.kind(rule.least - 1)))
        if rule.open:
            cases.append(("least", rule.least))
        if rule.most < math.inf:
            cases += [("most-plus-1", rule.most + 1)] + ([("most", rule.most)] if rule.open else [])
        cases += [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]
    return cases


def key_cases(payload, keys, optional=(), closed=False):
    """pytest params (key, value, expected exit): each mutation of each key of
    ``payload``, and an added unknown key, which only a ``closed`` object refuses."""
    cases = [pytest.param("unknown_key", 1, 2 if closed else 0, id="unknown_key-added")]
    for key in keys:
        for label, value in mutations(RULES[key], payload[key]):
            expected = 0 if value is DROP and key in optional else 2
            cases.append(pytest.param(key, value, expected, id=f"{key}-{label}"))
    return cases


def edited(payload, key, value):
    """``payload`` with ``key`` set to ``value``, or deleted for DROP."""
    out = {k: v for k, v in payload.items() if k != key}
    if value is not DROP:
        out[key] = value
    return out


def outcome(argv):
    """(exit code, stderr) of one CLI run; argparse exits on a usage error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli_main([str(arg) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_named(argv, expected, where, *named):
    """Run ``argv``: it exits ``expected``, and on exit 2 its error starts with
    ``where`` and holds each of ``named``, and its ``--out`` was not made."""
    code, err = outcome(argv)
    assert code == expected, f"exit {code}, {err!r}"
    if code == 2:
        assert err.startswith(f"error: {where}") and all(n in err for n in named), err
        assert not Path(argv[argv.index("--out") + 1]).is_dir()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The directory of a 20-row two-view dataset, its config and a one-epoch
    checkpoint of it, and the checkpoint's entries."""
    root = tmp_path_factory.mktemp("boundary")
    manifest = save_dataset(synthesize(2, 2, 20, (5, 6), seed=3), root / "data")
    assert json.loads(manifest.read_text()) == BASE_MANIFEST
    (root / "config.json").write_text(json.dumps(BASE_CONFIG))
    assert outcome(["train", "--data", manifest, "--config", root / "config.json",
                    "--out", root / "run"]) == (0, "")
    with np.load(root / "run" / "checkpoint.npz") as bundle:
        entries = {name: bundle[name] for name in bundle.files}
    assert json.loads(str(entries["__spec__"])) == BASE_SPEC
    return root, entries


@pytest.fixture()
def manifest(base, tmp_path):
    """The manifest of a fresh copy of the dataset."""
    shutil.copytree(base[0] / "data", tmp_path / "data")
    return tmp_path / "data" / "manifest.json"


def eval_argv(base, tmp_path, manifest=None, model=None):
    manifest = manifest or base[0] / "data" / "manifest.json"
    model = model or base[0] / "run" / "checkpoint.npz"
    return ["eval", "--model", model, "--data", manifest, "--out", tmp_path / "out"]


# -- JSON keys ---------------------------------------------------------------------


@pytest.mark.parametrize("key, value, expected",
                         key_cases(BASE_MANIFEST, ("format", "n_classes", "views", "labels")))
def test_manifest_key(key, value, expected, base, manifest, tmp_path):
    manifest.write_text(json.dumps(edited(BASE_MANIFEST, key, value)))
    assert_named(eval_argv(base, tmp_path, manifest), expected, f"{manifest}: ", key)


@pytest.mark.parametrize("key, value, expected", key_cases(
    BASE_MANIFEST["views"][0], ("path", "name"), optional=("name",)))
def test_manifest_view_entry_key(key, value, expected, base, manifest, tmp_path):
    views = [edited(BASE_MANIFEST["views"][0], key, value), BASE_MANIFEST["views"][1]]
    manifest.write_text(json.dumps({**BASE_MANIFEST, "views": views}))
    assert_named(eval_argv(base, tmp_path, manifest), expected, f"{manifest}: views[0]: ", key)


@pytest.mark.parametrize("key, value, expected", key_cases(
    BASE_CONFIG, BASE_CONFIG, optional=tuple(BASE_CONFIG), closed=True))
def test_config_file_key(key, value, expected, base, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(edited(BASE_CONFIG, key, value)))
    assert_named(["train", "--data", base[0] / "data" / "manifest.json", "--config", config,
                  "--out", tmp_path / "out"], expected, f"{config}: ", key)


def _checkpoint(base, tmp_path, edit):
    """A copy of the checkpoint with ``edit`` applied to its dict of entries."""
    arrays = dict(base[1])
    edit(arrays)
    path = tmp_path / "checkpoint.npz"
    np.savez(path, **arrays)
    return path


def _edit_json(name, edit):
    """An edit of checkpoint entries that applies ``edit`` to entry ``name``'s JSON object."""

    def apply(arrays):
        arrays[name] = np.array(json.dumps(edit(json.loads(str(arrays[name]))), sort_keys=True))

    return apply


@pytest.mark.parametrize("key, value, expected", key_cases(BASE_SPEC, BASE_SPEC, closed=True))
def test_checkpoint_spec_key(key, value, expected, base, tmp_path):
    path = _checkpoint(base, tmp_path, _edit_json("__spec__", lambda s: edited(s, key, value)))
    assert_named(eval_argv(base, tmp_path, model=path), expected, f"{path}: __spec__: ", key)


@pytest.mark.parametrize("key, value, expected",
                         key_cases({"config": {}, "stats": {}}, ("config", "stats")))
def test_checkpoint_meta_key(key, value, expected, base, tmp_path):
    path = _checkpoint(base, tmp_path, _edit_json("__meta__", lambda m: edited(m, key, value)))
    assert_named(eval_argv(base, tmp_path, model=path), expected, f"{path}: __meta__: ", key)


# a key dropped from the config takes its default, which must agree with the spec
DEFAULTS = TrainConfig().to_dict()
META_CONFIG_OPTIONAL = tuple(key for key in BASE_CONFIG
                             if key not in BASE_SPEC or BASE_SPEC[key] == DEFAULTS[key])


@pytest.mark.parametrize("key, value, expected", key_cases(
    BASE_CONFIG, BASE_CONFIG, optional=META_CONFIG_OPTIONAL, closed=True))
def test_checkpoint_meta_config_key(key, value, expected, base, tmp_path):
    def edit(meta):
        return {**meta, "config": edited(meta["config"], key, value)}

    path = _checkpoint(base, tmp_path, _edit_json("__meta__", edit))
    assert_named(eval_argv(base, tmp_path, model=path), expected,
                 f"{path}: __meta__: config: ", key)


@pytest.mark.parametrize("key", ["disc_hidden", "evidence_hidden"])
def test_deleted_hidden_width_key_named(key, base, tmp_path):
    """The hidden widths were once keys of the config and the spec; a config
    file, a ``__spec__`` or a ``__meta__`` config that still holds one, at the
    one width ever used, is refused naming it."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**BASE_CONFIG, key: 64}))
    assert_named(_config_argv(base, tmp_path, config), 2, f"{config}: {key}: unknown key")
    path = _checkpoint(base, tmp_path, _edit_json("__spec__", lambda spec: {**spec, key: 64}))
    assert_named(eval_argv(base, tmp_path, model=path), 2, f"{path}: __spec__: {key}: unknown key")
    path = _checkpoint(base, tmp_path, _edit_json(
        "__meta__", lambda meta: {**meta, "config": {**meta["config"], key: 64}}))
    assert_named(eval_argv(base, tmp_path, model=path), 2,
                 f"{path}: __meta__: config: {key}: unknown key")


def _stats_cases():
    """(named key, edit of the stats object) per mutation of ``means`` and
    ``stds``: of the key itself, and of the first view's row of five numbers."""
    cases = []
    for key, row in (("means", [0.0] * 5), ("stds", [1.0] * 5)):
        for label, value in [("dropped", DROP), ("null", None), ("number", 5)]:
            cases.append(pytest.param(key, lambda s, k=key, v=value: edited(s, k, v),
                                      id=f"{key}-{label}"))
        cases.append(pytest.param(key, lambda s, k=key: {**s, k: s[k][1:]},
                                  id=f"{key}-one-view-fewer"))
        for label, value in [("one-item-fewer", row[1:]), *mutations(RULES[key], row)]:
            if value is not DROP:
                cases.append(pytest.param(f"{key}[0]", lambda s, k=key, v=value:
                                          {**s, k: [v, *s[k][1:]]}, id=f"{key}[0]-{label}"))
    return cases


@pytest.mark.parametrize("named, edit", _stats_cases())
def test_checkpoint_meta_stats_key(named, edit, base, tmp_path):
    path = _checkpoint(base, tmp_path, _edit_json(
        "__meta__", lambda meta: {**meta, "stats": edit(meta["stats"])}))
    assert_named(eval_argv(base, tmp_path, model=path), 2, f"{path}: __meta__: stats: ", named)


# -- checkpoint entries ------------------------------------------------------------


def _array_cases():
    """(entry, fill, expected exit) from the rules of a parameter, the support
    radius and the format; inf is a radius's "no cap"."""
    cases = [pytest.param("__format__", np.array(RULES["__format__"].kind + "x"), 2,
                          id="__format__-other-text")]
    for name, rule in (("mapper0.w0", RULES["parameter"]),
                       ("__support_radius__", RULES["__support_radius__"])):
        fills = [("bool", True), ("string", "1"), ("nan", math.nan), ("inf", math.inf),
                 ("-inf", -math.inf)] + ([("least-minus-1", rule.least - 1)]
                                         if rule.least > -math.inf else [])
        for label, fill in fills:
            expected = 0 if name == "__support_radius__" and label == "inf" else 2
            cases.append(pytest.param(name, fill, expected, id=f"{name}-{label}"))
    return cases


@pytest.mark.parametrize("name, fill, expected", _array_cases())
def test_checkpoint_array_entry(name, fill, expected, base, tmp_path):
    def edit(arrays):
        value = arrays[name]
        arrays[name] = fill if value.ndim == 0 else np.full(value.shape, fill)

    path = _checkpoint(base, tmp_path, edit)
    assert_named(eval_argv(base, tmp_path, model=path), expected, f"{path}: {name}: ")



def test_every_entry_mutation_is_exit_two(base, tmp_path):
    """Delete, reshape or re-save as Python objects each entry; fill each
    parameter and the radius with NaN or strings; write __spec__ and
    __meta__ as non-JSON text or a JSON array."""
    entries = base[1]
    cases = []
    for name, value in entries.items():
        cases += [(name, "deleted", None), (name, "reshaped", value[None]),
                  (name, "objects", value.astype(object))]
        if name in ("__spec__", "__meta__"):
            as_list = json.dumps([json.loads(str(value))])
            cases += [(name, "not JSON", np.array("{" + str(value))),
                      (name, "JSON array", np.array(as_list))]
        elif name != "__format__":
            cases += [(name, "NaN", np.full_like(value, np.nan)),
                      (name, "strings", value.astype(str))]
    path = tmp_path / "checkpoint.npz"
    failures = []
    for i, (name, kind, replacement) in enumerate(cases):
        out = tmp_path / f"eval{i}"
        arrays = {k: v for k, v in entries.items() if k != name}
        if replacement is not None:
            arrays[name] = replacement
        np.savez(path, **arrays)
        code, err = outcome(["eval", "--model", path, "--data", base[0] / "data" / "manifest.json",
                             "--out", out])
        if code != 2 or not err.startswith(f"error: {path}: ") or out.exists():
            failures.append(f"{name} {kind}: exit {code}, {err!r}")
    assert len(cases) == 5 * (len(entries) - 1) + 3
    assert not failures, "\n".join(failures)


# -- view and label files ----------------------------------------------------------


def _replace_line(lineno, edit):
    """A file damage that applies ``edit`` to line ``lineno`` (counted from 1)."""

    def damage(path):
        lines = path.read_text().splitlines()
        lines[lineno - 1] = edit(lines[lineno - 1])
        path.write_text("\n".join(lines) + "\n")

    return damage


def _make_directory(path):
    path.unlink()
    path.mkdir()


FILE_DAMAGE = [
    pytest.param("view0.tsv", _replace_line(2, lambda line: line + "\t1.0"), 2, id="ragged-row"),
    pytest.param("view0.tsv", lambda p: p.write_text(""), None, id="empty"),
    pytest.param("view0.tsv", lambda p: p.write_text("\n  \n"), None, id="blank-lines"),
    pytest.param("view0.tsv", lambda p: p.write_bytes(b"0.5\n\xff\xfe\n"), None, id="non-utf8"),
    pytest.param("view1.tsv", _replace_line(3, lambda line: "nan" + line[line.index("\t"):]),
                 3, id="nan-cell"),
    pytest.param("view1.tsv", _replace_line(5, lambda line: "-inf" + line[line.index("\t"):]),
                 5, id="inf-cell"),
    pytest.param("view0.tsv", _replace_line(4, lambda line: "x" + line[line.index("\t"):]),
                 4, id="unparseable-cell"),
    pytest.param("view0.tsv", _make_directory, None, id="directory"),
    pytest.param("view0.tsv", Path.unlink, None, id="missing"),
    pytest.param("labels.tsv", _replace_line(2, lambda line: "1.5"), 2, id="label-fraction"),
    pytest.param("labels.tsv", _replace_line(3, lambda line: "7"), 3, id="label-out-of-range"),
    pytest.param("labels.tsv", lambda p: p.write_text(""), None, id="labels-empty"),
    pytest.param("labels.tsv", lambda p: p.write_bytes(b"\xff\n"), None, id="labels-non-utf8"),
    pytest.param("labels.tsv", _make_directory, None, id="labels-directory"),
    pytest.param("manifest.json", lambda p: p.write_bytes(b"{\xff}"), None, id="manifest-non-utf8"),
    pytest.param("manifest.json", lambda p: p.write_text("{"), None, id="manifest-not-json"),
    pytest.param("manifest.json", lambda p: p.write_text("[]"), None, id="manifest-array"),
    pytest.param("manifest.json", _make_directory, None, id="manifest-directory"),
]


@pytest.mark.parametrize("name, damage, line", FILE_DAMAGE)
def test_damaged_data_file_is_named(name, damage, line, base, manifest, tmp_path):
    path = manifest.parent / name
    damage(path)
    where = f"{path}:{line}: " if line else f"{path}: "
    assert_named(eval_argv(base, tmp_path, manifest), 2, where)


@pytest.mark.parametrize("name", ["view0.tsv", "labels.tsv"])
def test_row_count_mismatch_names_manifest(name, base, manifest, tmp_path):
    _replace_line(1, lambda line: "")(manifest.parent / name)
    assert_named(eval_argv(base, tmp_path, manifest), 2,
                 f"{manifest}: row counts disagree across files")


# -- paths on the command line -----------------------------------------------------


def _config_argv(base, tmp_path, config):
    return ["train", "--data", base[0] / "data" / "manifest.json", "--config", config,
            "--out", tmp_path / "out"]


PATH_DAMAGE = [
    pytest.param(lambda p: p.write_bytes(b'{"epochs": 1\xff}'), "file is not UTF-8 text",
                 id="non-utf8"),
    pytest.param(lambda p: p.mkdir(), "Is a directory", id="directory"),
    pytest.param(lambda p: None, "No such file or directory", id="missing"),
    pytest.param(lambda p: p.write_text("{"), "invalid JSON", id="not-json"),
    pytest.param(lambda p: p.write_text("[1]"), "must be a JSON object, got list", id="array"),
]


@pytest.mark.parametrize("damage, named", PATH_DAMAGE)
def test_bad_config_path_is_named(damage, named, base, tmp_path):
    config = tmp_path / "config.json"
    damage(config)
    assert_named(_config_argv(base, tmp_path, config), 2, f"{config}: {named}")


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("damage, named", PATH_DAMAGE[1:3])
def test_bad_data_path_is_named(command, damage, named, tmp_path):
    data = tmp_path / "manifest.json"
    damage(data)
    assert_named([command, "--data", data, "--out", tmp_path / "out"], 2, f"{data}: {named}")


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize("damage, named", [
    *PATH_DAMAGE[1:3],
    pytest.param(lambda p: p.write_text("text"), "not an npz checkpoint", id="text"),
])
def test_bad_model_path_is_named(command, damage, named, base, tmp_path):
    model = tmp_path / "checkpoint.npz"
    damage(model)
    argv = eval_argv(base, tmp_path, model=model)
    assert_named([command, *argv[1:]], 2, f"{model}: {named}")


@pytest.mark.parametrize("argv", [
    lambda base, out: eval_argv(base, out.parent),
    lambda base, out: ["sweep", *eval_argv(base, out.parent)[1:], "--sigmas", "0"],
    lambda base, out: ["train", "--data", base[0] / "data" / "manifest.json",
                       "--config", base[0] / "config.json", "--out", out],
], ids=["eval", "sweep", "train"])
def test_out_that_is_a_file_is_named(argv, base, tmp_path):
    out = tmp_path / "out"
    out.write_text("a file\n")
    code, err = outcome(argv(base, out))
    assert (code, err) == (2, f"error: {out}: File exists\n")


# -- command-line flags and Python API arguments -------------------------------------

# a valid value of each list rule that a flag or an argument has
LIST_BASE = {"view_dims": [5, 6], "sigmas": [0, 1], "corrupt_views": [0]}
CONFIG = [(name.replace("_", "-"), name) for name in _CONFIG_FLAGS]
# command -> (its other arguments, (flag, rule key) of each flag that has a rule)
FLAGS = {
    "synth": (["--out", "out"], [("classes", "n_classes"), ("dims", "view_dims"),
                                 ("separation", "separation"), ("seed", "seed")]),
    "train": (["--data", "d.json", "--out", "out"], [("trials", "trials"), *CONFIG]),
    "eval": (["--model", "m.npz", "--data", "d.json", "--out", "out"], [
        ("noise-sigma", "sigma"), ("conflict-fraction", "fraction"),
        ("noise-fraction", "fraction"), ("corrupt-views", "corrupt_views"), ("seed", "seed")]),
    "sweep": (["--model", "m.npz", "--data", "d.json", "--out", "out"], [
        ("sigmas", "sigmas"), ("noise-fraction", "fraction"), ("corruption-seed", "seed")]),
    "ablate": (["--data", "d.json", "--out", "out"], CONFIG),
    "gradcheck": ([], [("seeds", "seeds"), ("tol", "tol")]),
}


def flag_text(value):
    """A mutation's value as a flag's text: JSON, comma-separated for a list."""
    return ",".join(map(json.dumps, value)) if isinstance(value, list) else json.dumps(value)


def flag_cases():
    """pytest params (argv, flag, key): each mutation of each flag's rule, as
    text.  A dropped flag takes its default and one number is a list of one,
    so neither is a mutation of a flag."""
    cases = []
    for command, (inputs, flags) in FLAGS.items():
        for flag, key in flags:
            rule = RULES[key]
            for label, value in mutations(rule, LIST_BASE.get(key)):
                if value is not DROP and not (rule.each and label == "number"):
                    argv = [command, *inputs, f"--{flag}={flag_text(value)}"]
                    cases.append(pytest.param(argv, flag, key, id=f"{command}-{flag}-{label}"))
    return cases


@pytest.mark.parametrize("argv, flag, key", flag_cases())
def test_flag_rejected_as_parsed(argv, flag, key, tmp_path, monkeypatch):
    """No file the command names exists, so only parsing can reject it."""
    monkeypatch.chdir(tmp_path)
    code, err = outcome(argv)
    assert code == 2 and f"error: argument --{flag}: {key}" in err, err
    assert not Path("out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--sigmas", "0", "--noise-fraction", "5"], "noise-fraction"),
    (["sweep", "--sigmas", "0", "--corruption-seed=-1"], "corruption-seed"),
    (["sweep", "--sigmas", ","], "sigmas"),
    (["eval", "--seed=-1"], "seed"),
    (["train", "--config", "config.json", "--epochs", "0"], "epochs"),
], ids=["sweep-clean-fraction", "sweep-clean-seed", "sweep-no-sigma", "eval-clean-seed",
        "train-flag-over-config"])
def test_flag_a_run_would_not_use_is_rejected(argv, flag, base, tmp_path):
    """A flag is checked although the run would not use it, and a bad flag
    over a good --config file is not blamed on the file."""
    inputs = {"sweep": ["--model", base[0] / "run" / "checkpoint.npz"],
              "eval": ["--model", base[0] / "run" / "checkpoint.npz"], "train": []}[argv[0]]
    argv = [base[0] / arg if arg == "config.json" else arg for arg in argv]
    code, err = outcome([*argv, *inputs, "--data", base[0] / "data" / "manifest.json",
                         "--out", tmp_path / "out"])
    assert code == 2 and f"error: argument --{flag}: " in err and "config.json" not in err, err
    assert not (tmp_path / "out").exists()


# function -> (valid keyword arguments, {argument: rule key} of each argument that has a rule)
API = {
    synthesize: (dict(n_classes=2, n_views=2, n_samples=20, view_dims=[5, 6], separation=2.5,
                      seed=0), {"n_classes": "n_classes", "view_dims": "view_dims",
                                "seed": "seed", "separation": "separation"}),
    CorruptionSpec: (dict(kind="gaussian_noise", fraction=0.5, sigma=1.0, views=[0], seed=0),
                     {"fraction": "fraction", "sigma": "sigma", "views": "corrupt_views",
                      "seed": "seed"}),
    lambda_schedule: (dict(epoch=1, anneal_epochs=5), {"anneal_epochs": "anneal_epochs"}),
    # both are checked before the model or the rows are touched
    run_noise_sweep: (dict(trained=None, test_ds=None, sigmas=[0.0], fraction=0.5, seed=0),
                      {"fraction": "fraction", "seed": "seed"}),
}


def api_cases():
    """pytest params (function, keyword arguments, key): each mutation of each
    argument's rule, but a dropped argument and views=None, which means every view."""
    cases = []
    for fn, (kwargs, checked) in API.items():
        for argument, key in checked.items():
            for label, value in mutations(RULES[key], kwargs[argument]):
                if value is not DROP and not (argument == "views" and value is None):
                    cases.append(pytest.param(fn, {**kwargs, argument: value}, key,
                                              id=f"{fn.__name__}-{argument}-{label}"))
    return cases


@pytest.mark.parametrize("fn, kwargs, key", api_cases())
def test_api_argument_rejected_by_rule(fn, kwargs, key):
    with pytest.raises(ContractError, match=f"^{re.escape(key)}(\\[0\\])?: must be "):
        fn(**kwargs)
