"""Perfect-ranking tests for balanced ranked set samples.

A balanced ranked set sample measures, in each of n cycles, the judged
i-th smallest unit of an independent size-k comparison set for every
rank slot i.  This package evaluates eleven statistics that detect
judgment errors, computes their null distributions exactly on small
grids or by reproducible Monte Carlo on large ones, runs randomized and
non-randomized tests, generates samples under four imperfect-ranking
mechanisms, and estimates test power over parameter grids.
"""

from .errors import (
    DataValidationError,
    DistributionMismatchError,
    EnumerationBudgetError,
    ExactEngineCapError,
    RssError,
    TieError,
)
from .exact import DEFAULT_EXACT_CELL_CAP, OPT_IN_EXACT_CELL_CAP, exact_distributions
from .mc import (
    NullSource,
    mc_null_distribution,
    mc_null_distributions,
    null_distributions_for,
)
from .models import (
    GeneratorConfig,
    ImperfectModel,
    draw_cells,
    generate,
    marginal_cdf,
    slot_density,
)
from .nulldist import (
    CriticalValues,
    Decision,
    NullDistribution,
    Provenance,
    TestResult,
    as_exact_probability,
    critical_value,
    exact_null_distribution,
    format_probability,
    round_half_up,
    run_test,
)
from .power import (
    ComparisonReport,
    PowerCell,
    PowerStudy,
    PowerTable,
    compare_tests,
    estimate_power,
)
from .sample import (
    RssSample,
    monotone_transform,
    parse_csv,
)
from .statistics import (
    ALL_KINDS,
    DEFAULT_ENUMERATION_BUDGET,
    StatisticKind,
    brute_force_perm_all,
    evaluate,
    is_lower_tail,
    ps_offset,
    statistic_range,
)
from .streams import fresh_seed, substream
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"
