"""Background repositories and the knowledge-base model.

The paper's static inputs (Section 2.2): an entity repository (Yago) used
only for alias names and gender, a pattern repository (PATTY) of
relational paraphrase synsets, and a type system derived from Wikipedia
infobox templates with a manually built subsumption hierarchy. This
package provides all three plus the fact/KB data model, including
higher-arity facts.
"""

from repro.kb.entity_repository import Entity, EntityRepository
from repro.kb.facts import Argument, Fact, KbBuilder, KnowledgeBase
from repro.kb.pattern_repository import PatternRepository, Relation
from repro.kb.typesystem import TypeSystem

__all__ = [
    "Argument",
    "Entity",
    "EntityRepository",
    "Fact",
    "KbBuilder",
    "KnowledgeBase",
    "PatternRepository",
    "Relation",
    "TypeSystem",
]
