"""The library's version, in a leaf module that imports nothing.

Library modules that record the version (artifacts, run provenance) read it
from here, so none of them has to import the root package and with it every
layer.  ``pyproject.toml`` reads it from here too, so this is the only place
the version is written.
"""

__version__ = "1.2.0"
