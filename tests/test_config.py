from dataclasses import fields

import numpy as np
import pytest

from slmc.errors import ConfigError
from slmc.experiment import CONFIG_KEYS, ExperimentConfig, TargetSpecification, parse_config

MINIMAL = """
[target]
kind = gaussian
precision_diag = 1, 4

[run]
methods = scaled
epsilons = 0.5
"""


def test_minimal_config_with_defaults():
    config = parse_config(MINIMAL)
    assert config.target.kind == "gaussian"
    assert config.target.precision_diag == (1.0, 4.0)
    assert config.methods == ("scaled",)
    assert config.epsilons == (0.5,)
    assert config.chains == 4
    assert config.seed == 0
    assert config.delta_override is None


def test_unknown_key_names_key_and_line():
    text = MINIMAL + "foo = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "foo" in str(err.value)
    # MINIMAL spans lines 1-8 (leading blank line included), so foo sits on 9
    assert err.value.line == 9


def test_comments_and_blank_lines_ignored():
    text = MINIMAL.replace("epsilons = 0.5", "epsilons = 0.5  # target accuracy\n")
    config = parse_config(text)
    assert config.epsilons == (0.5,)


def test_override_pair_parsed():
    text = MINIMAL + "delta = 0.01\nn_steps = 1000\n"
    config = parse_config(text)
    assert config.delta_override == 0.01
    assert config.n_override == 1000


def test_lone_override_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "delta = 0.01\n")


def test_missing_target_section():
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\nmethods = scaled\nepsilons = 0.5\n")
    assert "target" in str(err.value)


def test_empty_methods_rejected():
    bad = MINIMAL.replace("methods = scaled", "methods =")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_unknown_method_rejected():
    bad = MINIMAL.replace("methods = scaled", "methods = warp")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("[banana]\nkind = gaussian\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "epsilons = 0.25\n")


def test_logistic_requires_dataset():
    text = """
[target]
kind = logistic
ridge = 1.0

[run]
methods = unscaled
epsilons = 0.5
"""
    with pytest.raises(ConfigError):
        parse_config(text)


def test_init_section():
    text = MINIMAL + "\n[init]\nx0 = 3, 4\ndist_bound = 6\n"
    config = parse_config(text)
    assert config.x0 == (3.0, 4.0)
    assert config.dist_bound == 6.0


def test_mismatched_dim_rejected():
    bad = MINIMAL.replace("precision_diag = 1, 4", "precision_diag = 1, 4\ndim = 3")
    with pytest.raises(ConfigError):
        parse_config(bad)


LOGISTIC = """
[target]
kind = logistic
dataset = rows.csv
ridge = 1.0

[run]
methods = unscaled
epsilons = 0.5
"""

#: (config with exactly one error, the ConfigError's text, its line).
ONE_ERROR = {
    "seed-not-int": (MINIMAL + "seed = 1.5\n", "line 9: expected an integer, got '1.5'", 9),
    "chains-not-int": (MINIMAL + "chains = four\n", "line 9: expected an integer, got 'four'", 9),
    "n_steps-not-int": (
        MINIMAL + "delta = 0.01\nn_steps = 1e3\n",
        "line 10: expected an integer, got '1e3'",
        10,
    ),
    "burn_in-not-int": (MINIMAL + "burn_in = 2.5\n", "line 9: expected an integer, got '2.5'", 9),
    "thin-not-int": (MINIMAL + "thin = one\n", "line 9: expected an integer, got 'one'", 9),
    "delta-not-number": (
        MINIMAL + "delta = small\nn_steps = 100\n",
        "line 9: expected a number, got 'small'",
        9,
    ),
    "ridge-not-number": (
        LOGISTIC.replace("ridge = 1.0", "ridge = high"),
        "line 5: expected a number, got 'high'",
        5,
    ),
    "dist_bound-not-number": (
        MINIMAL + "[init]\ndist_bound = far\n",
        "line 10: expected a number, got 'far'",
        10,
    ),
    "malformed-list": (
        MINIMAL.replace("precision_diag = 1, 4", "precision_diag = 1, x"),
        "line 4: expected a comma-separated number list: could not convert string to float: ' x'",
        4,
    ),
    "chains-zero": (MINIMAL + "chains = 0\n", "line 9: chains must be positive", 9),
    "burn_in-negative": (MINIMAL + "burn_in = -1\n", "line 9: burn_in must be nonnegative", 9),
    "thin-zero": (MINIMAL + "thin = 0\n", "line 9: thin must be positive", 9),
    "epsilon-negative": (
        MINIMAL.replace("epsilons = 0.5", "epsilons = 0.5, -0.1"),
        "line 8: epsilons must be positive",
        8,
    ),
    "lone-delta": (
        MINIMAL + "delta = 0.01\n",
        "line 9: delta and n_steps overrides must be given together",
        9,
    ),
    "lone-n_steps": (
        MINIMAL + "n_steps = 100\n",
        "line 9: delta and n_steps overrides must be given together",
        9,
    ),
    "delta-zero": (MINIMAL + "delta = 0\nn_steps = 100\n", "line 9: overrides must be positive", 9),
    # a non-positive n_steps is reported on the delta line
    "n_steps-zero": (MINIMAL + "n_steps = 0\ndelta = 0.01\n", "line 10: overrides must be positive", 10),
    "missing-kind": (
        MINIMAL.replace("kind = gaussian", ""),
        "missing target: section [target] must set `kind`",
        None,
    ),
    "unknown-kind": (
        MINIMAL.replace("kind = gaussian", "kind = cauchy"),
        "line 3: unknown target kind 'cauchy'",
        3,
    ),
    "gaussian-without-precision": (
        MINIMAL.replace("precision_diag = 1, 4", "mean = 0, 0"),
        "gaussian target requires precision_diag",
        None,
    ),
    "dim-mismatch": (
        MINIMAL.replace("kind = gaussian", "kind = gaussian\ndim = 3"),
        "dim does not match precision_diag length",
        None,
    ),
    "mean-mismatch": (
        MINIMAL.replace("kind = gaussian", "kind = gaussian\nmean = 1, 2, 3"),
        "mean does not match precision_diag length",
        None,
    ),
    "logistic-without-dataset": (
        LOGISTIC.replace("dataset = rows.csv", ""),
        "logistic target requires dataset",
        None,
    ),
    "logistic-without-ridge": (
        LOGISTIC.replace("ridge = 1.0", ""),
        "logistic target requires ridge",
        None,
    ),
    "unknown-method": (
        MINIMAL.replace("methods = scaled", "methods = scaled, warp"),
        "line 7: unknown method 'warp'",
        7,
    ),
    "no-methods": (
        MINIMAL.replace("methods = scaled", "methods = ,"),
        "at least one method is required (run.methods)",
        None,
    ),
    "no-epsilons": (
        MINIMAL.replace("epsilons = 0.5", ""),
        "at least one epsilon is required (run.epsilons)",
        None,
    ),
    "unknown-key": (MINIMAL + "foo = 1\n", "line 9: unknown key 'foo' in section [run]", 9),
    "unknown-section": (MINIMAL + "[banana]\n", "line 9: unknown section [banana]", 9),
    "duplicate-key": (
        MINIMAL + "epsilons = 0.25\n",
        "line 9: duplicate key 'epsilons' in section [run]",
        9,
    ),
    "key-outside-section": ("kind = gaussian\n" + MINIMAL, "line 1: key outside of any [section]", 1),
    "line-without-equals": (MINIMAL + "chains 4\n", "line 9: expected `key = value`, got 'chains 4'", 9),
    # a target name is a results.csv cell: a comma would add a column, a quote open one
    "name-with-comma": (
        MINIMAL.replace("kind = gaussian", "kind = gaussian\nname = my,target"),
        "line 4: a target name holds no ',' or '\"', got 'my,target'",
        4,
    ),
    "name-with-quote": (
        MINIMAL.replace("kind = gaussian", 'kind = gaussian\nname = my"target'),
        "line 4: a target name holds no ',' or '\"', got 'my\"target'",
        4,
    ),
}


@pytest.mark.parametrize("text, message, line", ONE_ERROR.values(), ids=ONE_ERROR.keys())
def test_one_error_names_its_message_and_line(text, message, line):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message
    assert err.value.line == line


def test_every_field_is_named_by_exactly_one_key():
    for cls, target_section in ((TargetSpecification, True), (ExperimentConfig, False)):
        named = [row.field for (section, _), row in CONFIG_KEYS.items() if (section == "target") == target_section]
        assert sorted(named) == sorted(f.name for f in fields(cls) if f.name != "target")


#: A config per number-valued key, {v} standing for one of its numbers, and that line.
NUMBER_KEYS = {
    ("target", "precision_diag"): (MINIMAL.replace("precision_diag = 1, 4", "precision_diag = 1, {v}"), 4),
    ("target", "mean"): (MINIMAL.replace("kind = gaussian", "kind = gaussian\nmean = {v}, 0"), 4),
    ("target", "ridge"): (LOGISTIC.replace("ridge = 1.0", "ridge = {v}"), 5),
    ("init", "x0"): (MINIMAL + "[init]\nx0 = {v}, 0\n", 10),
    ("init", "dist_bound"): (MINIMAL + "[init]\ndist_bound = {v}\n", 10),
    ("run", "epsilons"): (MINIMAL.replace("epsilons = 0.5", "epsilons = 0.5, {v}"), 8),
    ("run", "delta"): (MINIMAL + "delta = {v}\nn_steps = 100\n", 9),
}


def test_number_keys_are_every_key_read_as_floats():
    def floats(row):
        try:
            return np.atleast_1d(row.parse("0.5")).dtype.kind == "f"
        except ValueError:
            return False

    assert set(NUMBER_KEYS) == {key for key, row in CONFIG_KEYS.items() if floats(row)}


@pytest.mark.parametrize("number", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", NUMBER_KEYS, ids="{0[0]}.{0[1]}".format)
def test_non_finite_number_names_its_line(key, number):
    # NaN passed the lower bounds (epsilons = nan wrote nan rows) and inf every check
    template, line = NUMBER_KEYS[key]
    with pytest.raises(ConfigError) as err:
        parse_config(template.format(v=number))
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: expected finite numbers, got ")
    assert number in str(err.value)
