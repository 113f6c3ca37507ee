"""Textual modeling language: parser, canonical printer, and `Model.build`,
the one check of a model's names, values and structure."""

from .parser import load, parse
from .syntax import Diagnostic, Model, ParseError, System, print_model

__all__ = ["Diagnostic", "ParseError", "Model", "System", "load", "parse",
           "print_model"]
