"""Core algorithms: uncertain data model, UDT construction and pruning.

This subpackage contains the paper's primary contribution — decision-tree
construction over uncertain (pdf-valued) data — together with every
substrate it relies on: pdfs, the dataset model, dispersion measures and
their lower bounds, the end-point interval machinery, the split-finding
strategies (UDT, UDT-BP, UDT-LP, UDT-GP, UDT-ES), the tree model with
probabilistic classification, and pre/post-pruning.
"""

from repro.core.averaging import AveragingClassifier
from repro.core.builder import BuildResult, TreeBuilder
from repro.core.categorical import CategoricalDistribution
from repro.core.dataset import Attribute, AttributeKind, UncertainDataset, UncertainTuple
from repro.core.estimator import BaseTreeEstimator, clone_estimator
from repro.core.dispersion import (
    DispersionMeasure,
    EntropyMeasure,
    GainRatioMeasure,
    GiniMeasure,
    get_measure,
)
from repro.core.intervals import IntervalKind, IntervalTable, build_interval_table
from repro.core.pdf import Pdf, SampledPdf
from repro.core.splits import AttributeSplitContext, CandidateSplit
from repro.core.stats import BuildStats, SplitSearchStats
from repro.core.strategies import (
    STRATEGY_NAMES,
    SplitFinder,
    UDTBPStrategy,
    UDTESStrategy,
    UDTGPStrategy,
    UDTLPStrategy,
    UDTStrategy,
    get_strategy,
)
from repro.core.tree import DecisionTree, InternalNode, LeafNode, Rule, TreeNode
from repro.core.udt import UDTClassifier
from repro.core.unbounded import PercentileGPStrategy, percentile_pseudo_end_points

__all__ = [
    "Attribute",
    "AttributeKind",
    "AttributeSplitContext",
    "AveragingClassifier",
    "BaseTreeEstimator",
    "BuildResult",
    "BuildStats",
    "CandidateSplit",
    "CategoricalDistribution",
    "DecisionTree",
    "DispersionMeasure",
    "EntropyMeasure",
    "GainRatioMeasure",
    "GiniMeasure",
    "InternalNode",
    "IntervalKind",
    "IntervalTable",
    "LeafNode",
    "Pdf",
    "PercentileGPStrategy",
    "Rule",
    "SampledPdf",
    "SplitFinder",
    "SplitSearchStats",
    "STRATEGY_NAMES",
    "TreeBuilder",
    "TreeNode",
    "UDTBPStrategy",
    "UDTClassifier",
    "UDTESStrategy",
    "UDTGPStrategy",
    "UDTLPStrategy",
    "UDTStrategy",
    "UncertainDataset",
    "UncertainTuple",
    "build_interval_table",
    "clone_estimator",
    "get_measure",
    "get_strategy",
    "percentile_pseudo_end_points",
]
