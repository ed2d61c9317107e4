"""
Computational toolkit for Garside groups: left-weighted normal forms,
conjugacy invariants and super summit sets, exact rational translation
numbers with uniform denominator bounds, and solvers for the power,
proper-power and generalized-power problems and their conjugacy versions.
"""

from .conjugacy import (
    SummitData,
    are_conjugate,
    class_invariant,
    summit,
    super_summit_set,
)
from .core import (
    Atom,
    Element,
    GarsideStructure,
    ResourceLimitError,
    Simple,
    StructureMismatchError,
    degree,
    delta_power_element,
    identity_element,
    invert,
    multiply,
    normalize,
    permutations,
    power,
    simple_element,
    validate_element,
    word_length,
)
from .problems import (
    ProblemAnswer,
    UnsupportedStructureError,
    solve_generalized_power,
    solve_power,
    solve_proper_power_conjugacy,
    solve_root,
    solve_root_conjugacy,
)
from .structures import (
    BraidStructure,
    ProductStructure,
    TorusStructure,
    braid_structure,
    product_structure,
    structure_from_descriptor,
    torus_structure,
)
from .translation import (
    TranslationTriple,
    straightness,
    translation_number,
    translation_triple,
)
