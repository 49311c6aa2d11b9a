import numpy as np
from hypothesis import settings

from fedgeo.model import ParameterSet, _cross_entropy, flatten, forward, layer_layout, layer_views

# Property tests draw the same examples on every run and never time out
# on a slow host; pytest --hypothesis-profile=default explores at random.
settings.register_profile("fedgeo", deadline=None, derandomize=True)
settings.load_profile("fedgeo")


def stack(sets: list[ParameterSet]) -> ParameterSet:
    """K same-shaped parameter sets as one, the form ``forward`` and
    ``gradient`` take, built as a ``Federation`` holds them: the sets'
    flat vectors stacked to one (K, L) matrix, and its ``layer_views``."""
    return layer_views(np.stack([flatten(s).values for s in sets]), layer_layout(sets[0]))


def mean_losses(params: ParameterSet, batch, rows, activation: str = "relu") -> np.ndarray:
    """Each graph's mean cross-entropy over its ``rows``, the loss whose
    gradient ``gradient`` computes: its rows' ``_cross_entropy`` of
    ``forward``'s logits, summed in row order by ``rows.sums`` over the
    row count. It overwrites the buffers ``forward`` and ``gradient``
    hold on the batch."""
    logits = forward(params, batch, rows, activation)[1][-1]
    nll, _ = _cross_entropy(logits, rows.label_positions(logits.shape[1]))
    return rows.sums @ nll / rows.counts
