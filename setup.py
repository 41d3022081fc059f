"""Setuptools shim for tools that still invoke ``setup.py`` directly
(``python setup.py --name``, ``python setup.py build``).

The build configuration lives in pyproject.toml.
"""
from setuptools import setup

setup()
