"""Textual modeling language: parser, resolver, canonical printer."""

from .parser import parse
from .syntax import Diagnostic, Model, ParseError, System, print_model
from .validate import resolve

__all__ = ["Diagnostic", "ParseError", "Model", "System", "parse",
           "print_model", "resolve"]
