import numpy as np
from hypothesis import settings

from fedgeo.model import ParameterSet, flatten, layer_layout, layer_views

# Property tests draw the same examples on every run and never time out
# on a slow host; pytest --hypothesis-profile=default explores at random.
settings.register_profile("fedgeo", deadline=None, derandomize=True)
settings.load_profile("fedgeo")


def stack(sets: list[ParameterSet]) -> ParameterSet:
    """K same-shaped parameter sets as one, the form ``forward`` and
    ``gradient`` take, built as a ``Federation`` holds them: the sets'
    flat vectors stacked to one (K, L) matrix, and its ``layer_views``."""
    return layer_views(np.stack([flatten(s).values for s in sets]), layer_layout(sets[0]))
