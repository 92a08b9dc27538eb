"""Sub-question driven graph RAG with a dynamically updated triple store."""

from .config import Config, load_config
from .embedders import Embedding, HashedBagEmbedder, make_embedder
from .gateway import ChatRequest, Gateway
from .kg import KnowledgeGraph, Triple
from .solver import QuestionTrace, solve
from .stores import Stores, load_stores, save_stores
from .vector import VectorIndex, verbalize_triple

__version__ = "0.1.0"

__all__ = [
    "ChatRequest",
    "Config",
    "Embedding",
    "Gateway",
    "HashedBagEmbedder",
    "KnowledgeGraph",
    "QuestionTrace",
    "Stores",
    "Triple",
    "VectorIndex",
    "__version__",
    "load_config",
    "load_stores",
    "make_embedder",
    "save_stores",
    "solve",
    "verbalize_triple",
]
