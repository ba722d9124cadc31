"""The weight-initialisation stream of every neural family is pinned.

Each network draws its weights from one generator in construction order,
so a layer that draws one number more or less moves every weight built
after it.  (The TFT's GRN spends one ``rng.integers`` draw before
``quantile_head`` is built: drop it and every TFT allocation moves.)  The
digests below are of the networks as a cold ``fit`` builds them, recorded
while the GRN still seeded a dropout layer with that draw; they must
never change.
"""

import hashlib

import numpy as np
import pytest

from repro.forecast import (
    DeepARForecaster,
    MLPForecaster,
    MLPQuantileForecaster,
    TFTForecaster,
    TrainingConfig,
)

_CFG = TrainingConfig(epochs=1, seed=0)
_FAMILIES = {
    "tft": lambda: TFTForecaster(24, 6, d_model=8, num_heads=2, config=_CFG),
    "deepar": lambda: DeepARForecaster(24, 6, hidden_size=8, num_layers=2, config=_CFG),
    "mlp": lambda: MLPForecaster(24, 6, hidden_size=16, config=_CFG),
    "mlp_quantile": lambda: MLPQuantileForecaster(24, 6, hidden_size=16, config=_CFG),
}
_DIGESTS = {
    "tft": "5e6f7e3fe620512b59b78f80615052beb390fd9c65cb13232f268be7d3b1a9e5",
    "deepar": "d0295d847da9bd0af62eb627588bb0ccc4b21fe71ebc3040a99085186f0c5dd1",
    "mlp": "7bc14eecdb60b5c6895f429d089b29f10d9884f0e6689728b215f150ba82194f",
    "mlp_quantile": "dc9ed8c7bba8a0d9c800ea70eb9cf19394b5994c83abcbdbae4e6c6bfaa48d63",
}


def state_digest(state: dict[str, np.ndarray]) -> str:
    """sha256 over every array's name, dtype, shape and bytes, in name order."""
    digest = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_network_built_at_a_fixed_seed_is_unchanged(family):
    forecaster = _FAMILIES[family]()
    network = forecaster._in_precision(forecaster._build(np.random.default_rng(7)))
    assert state_digest(network.state_dict()) == _DIGESTS[family]
