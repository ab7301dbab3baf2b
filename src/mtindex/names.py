"""The names the CLI's parser offers, in a module that loads only the standard library.

``FIELDS`` states once which fields each model reads, sizes then the
parameter; ``POLICIES`` are the isolated-vertex policies.  ``models`` and
``indices`` import them from here, so ``mtindex --help`` and every usage
error are decided before numpy loads.
"""

FIELDS = {"er": ("n", "p"), "rg": ("n", "r"), "br": ("n1", "n2", "p")}

EXCLUDE = "exclude"
LOGZERO = "logzero"
POLICIES = (EXCLUDE, LOGZERO)
