"""RunConfig defaults, validation, file loading, and hashing."""

import ast
import json
from pathlib import Path

import pytest

import mmgi
from mmgi import autodiff, nn
from mmgi.config import RunConfig, config_hash, load_config
from mmgi.errors import ConfigError


def test_reference_defaults():
    cfg = RunConfig()
    assert cfg.d_w == 400
    assert cfg.d_v == 2048
    assert cfg.d_s == 1024
    assert cfg.roi_count == 36
    assert cfg.gamma == 0.5 and cfg.lam == 0.5
    assert cfg.alpha1 == 0.5 and cfg.alpha2 == 0.5
    assert cfg.lr == 1e-4
    assert cfg.batch == 64
    assert cfg.epochs == 30
    assert cfg.dropout == 0.1
    assert cfg.max_text_length == 80
    assert cfg.mode == "full"
    assert cfg.d == 400  # chart width defaults to the word-embedding width


def test_validation_errors():
    with pytest.raises(ConfigError):
        RunConfig(mode="audio-only").resolved()
    with pytest.raises(ConfigError):
        RunConfig(dropout=1.0).resolved()
    with pytest.raises(ConfigError):
        RunConfig(batch=0).resolved()
    # a field takes only values of its default's type: a string is truthy,
    # and bool is an int to Python
    for field, value in [("use_pitch", "no"), ("use_visual", 1), ("d", "abc"), ("d", 8.0),
                         ("batch", True), ("dropout", "x"), ("lr", False), ("mode", 3)]:
        with pytest.raises(ConfigError, match=field):
            load_config(None, {field: value})
    cfg = load_config(None, {"gamma": 1, "lr": 0.5, "seed": 3, "use_voice": False})
    assert (cfg.gamma, cfg.lr, cfg.seed, cfg.use_voice) == (1, 0.5, 3, False)


def test_float_fields_must_be_finite_and_lr_non_negative(tmp_path):
    for field, value in [("lr", float("nan")), ("lr", -1.0), ("gamma", float("inf")),
                         ("margin", float("nan")), ("lam", -float("inf")),
                         ("dropout", float("nan"))]:
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            RunConfig(**{field: value}).validate()
    assert RunConfig(lr=0.0).resolved().lr == 0.0
    path = tmp_path / "c.json"
    path.write_text('{"lr": NaN}')     # Python's json reads and writes NaN
    with pytest.raises(ConfigError, match="lr must be finite"):
        load_config(path)


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"d": 24, "lr": 0.001, "mode": "textless"}))
    cfg = load_config(path, overrides={"lr": 0.01, "epochs": 3})
    assert cfg.d == 24 and cfg.lr == 0.01 and cfg.epochs == 3
    assert cfg.mode == "textless"

    path.write_text(json.dumps({"nonsense": 1}))
    with pytest.raises(ConfigError, match="nonsense"):
        load_config(path)

    path.write_text("{broken")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_config_hash_stable_and_sensitive():
    a = RunConfig(d=32).resolved()
    b = RunConfig(d=32).resolved()
    c = RunConfig(d=48).resolved()
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert config_hash(a, {"vocab_size": 5}) != config_hash(a, {"vocab_size": 6})


def _unread_config_fields(package: Path) -> dict[str, list[str]]:
    """Fields of RunConfig and SynthConfig never read as an attribute in the
    package's modules, outside the field's own class body."""
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    fields, inside = {}, set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in ("RunConfig", "SynthConfig"):
                fields[node.name] = [item.target.id for item in node.body
                                     if isinstance(item, ast.AnnAssign)]
                inside.update(id(sub) for sub in ast.walk(node))
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in inside}
    return {name: [f for f in names if f not in read] for name, names in fields.items()}


def test_every_config_field_is_read():
    # a field no module reads is a knob that does nothing
    unread = _unread_config_fields(Path(mmgi.__file__).parent)
    assert set(unread) == {"RunConfig", "SynthConfig"}
    assert unread == {"RunConfig": [], "SynthConfig": []}


def _called_names(package: Path, skip: set[str]) -> set[str]:
    """Names called, as a function or a method, in the package's modules
    other than those in `skip`."""
    called = set()
    for path in sorted(package.glob("*.py")):
        if path.name not in skip:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    called.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
    return called


def test_every_nn_op_is_called_outside_its_checks():
    # an op that only the gradient checks call is one no training step or
    # parse builds
    called = _called_names(Path(mmgi.__file__).parent, {"nn.py", "verify.py", "gradcheck.py"})
    assert sorted(set(nn.__all__) - called) == []


def _autodiff_references(package: Path) -> set[str]:
    """Names of `mmgi.autodiff` that the package's other modules reference: as
    an attribute of the module, under whatever name it is imported as, or
    through `from .autodiff import`. A bare call such as `np.tanh` is not one."""
    referenced = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "autodiff.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("autodiff", "mmgi.autodiff"):
                referenced.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module in (None, "mmgi"):
                aliases.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "autodiff")
        referenced.update(node.attr for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute)
                          and isinstance(node.value, ast.Name) and node.value.id in aliases)
    return referenced


def test_every_autodiff_op_is_referenced_outside_the_engine():
    # an op no other module builds is kept alive only by its own checks
    referenced = _autodiff_references(Path(mmgi.__file__).parent)
    assert sorted(set(autodiff.__all__) - referenced) == []
