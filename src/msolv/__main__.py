"""``python -m msolv``: the same command line as the ``msolv`` script."""
from .cli import main

raise SystemExit(main())
