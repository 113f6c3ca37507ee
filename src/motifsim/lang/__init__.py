"""Textual modeling language: parser, canonical printer, and `Model.build`,
the one check of a model's names, values and structure."""

from .parser import parse
from .syntax import Diagnostic, Model, ParseError, System, print_model

__all__ = ["Diagnostic", "ParseError", "Model", "System", "parse",
           "print_model"]
