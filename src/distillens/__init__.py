"""distillens: complexity, selection and calibration analysis for MT data.

The package measures how hard a parallel corpus is for parallel-decoding
translation models (reordering degree, lexical diversity, faithfulness to
an original corpus), selects distilled references from teacher k-best
lists, reorders source text monotonically, and evaluates model confidence
and calibration from exported predictions and attention weights.
"""

from .errors import *
from .corpus_io import *
from .aligner import *
from .complexity import *
from .selection import *
from .calibration import *
from .preorder import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "bundled_data_dir",
    *errors.__all__,
    *corpus_io.__all__,
    *aligner.__all__,
    *complexity.__all__,
    *selection.__all__,
    *calibration.__all__,
    *preorder.__all__,
]


def bundled_data_dir():
    """Directory of the small synthetic corpora shipped with the package."""
    # imported here, so that importing a subcommand does not load
    # importlib.resources and the pathlib it pulls in
    from importlib import resources

    return resources.files("distillens") / "data"
