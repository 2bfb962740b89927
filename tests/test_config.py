import pytest

from slmc.errors import ConfigError
from slmc.experiment import parse_config

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
