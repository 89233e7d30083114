"""The treedepth algebra and the Courcelle engine (paper Sections 3-4)."""

from .automata import (
    ComplementAutomaton,
    ConstAutomaton,
    ContainsPatternAutomaton,
    EdgeWitnessAutomaton,
    EndpointsInAutomaton,
    IncCountsAutomaton,
    ItemScanAutomaton,
    ProductAutomaton,
    ProjectionAutomaton,
    SingletonAutomaton,
    State,
    TreeAutomaton,
    extend_symbol,
)
from .cache import (
    CACHE_VERSION,
    AutomatonCache,
    cache_key,
    cached_compile,
    default_cache,
    set_default_cache,
    transition_table_bytes,
)
from .compiler import compile_formula, compile_with_singletons
from .minimize import (
    MinimizationBudget,
    MinimizationStats,
    MinimizedAutomaton,
    graph_label_alphabet,
    minimization_stats,
    minimize_automaton,
    minimized_automaton,
)
from .engine import (
    OptimizationResult,
    check,
    check_assignment,
    count,
    optimize,
    run_states,
)
from .symbols import (
    BaseStructure,
    BaseSymbol,
    SymbolChoice,
    base_structure,
    enumerate_symbol_choices,
    owned_items,
    symbol_for_assignment,
)

__all__ = [
    "AutomatonCache", "CACHE_VERSION", "ContainsPatternAutomaton",
    "cache_key", "cached_compile",
    "compile_with_singletons", "default_cache", "set_default_cache",
    "transition_table_bytes",
    "BaseStructure", "BaseSymbol", "ComplementAutomaton", "ConstAutomaton",
    "EdgeWitnessAutomaton", "EndpointsInAutomaton", "IncCountsAutomaton",
    "ItemScanAutomaton",
    "MinimizationBudget", "MinimizationStats", "MinimizedAutomaton",
    "OptimizationResult", "ProductAutomaton", "ProjectionAutomaton",
    "SingletonAutomaton", "State", "SymbolChoice",
    "TreeAutomaton", "base_structure", "check",
    "check_assignment",
    "compile_formula", "count", "enumerate_symbol_choices", "extend_symbol",
    "graph_label_alphabet", "minimization_stats", "minimize_automaton",
    "minimized_automaton",
    "optimize", "owned_items", "run_states", "symbol_for_assignment",
]
