"""Language-inference baselines and the membership-oracle framework."""

from repro.learning.lstar import (
    LStarResult,
    SamplingEquivalenceOracle,
    lstar,
)
from repro.learning.oracle import (
    CachingOracle,
    CountingOracle,
    DeadlineOracle,
    LearningTimeout,
    Oracle,
    SubprocessOracle,
    grammar_oracle,
    program_oracle,
    regex_oracle,
)
from repro.learning.resilience import (
    ChaosOracle,
    FaultPlan,
    OracleFailedError,
    OracleTransientError,
    ResilientOracle,
    RetryPolicy,
    parse_fault_spec,
)
from repro.learning.rpni import RPNIResult, rpni

__all__ = [
    "CachingOracle",
    "ChaosOracle",
    "CountingOracle",
    "DeadlineOracle",
    "FaultPlan",
    "LStarResult",
    "LearningTimeout",
    "Oracle",
    "OracleFailedError",
    "OracleTransientError",
    "RPNIResult",
    "ResilientOracle",
    "RetryPolicy",
    "SamplingEquivalenceOracle",
    "SubprocessOracle",
    "grammar_oracle",
    "lstar",
    "parse_fault_spec",
    "program_oracle",
    "regex_oracle",
    "rpni",
]
