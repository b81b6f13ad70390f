"""MiniSol: a small contract language covering the call, exception, and
gas idioms the testing harness exercises. Source files use the `.msol`
extension."""

from .lexer import ParseError
from .parser import parse
from .validate import SemanticError, validate

__all__ = ["parse", "validate", "ParseError", "SemanticError"]
