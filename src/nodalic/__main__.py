"""``python -m nodalic``: the ``nodalic`` command line."""

from .cli import entry

# importing this module, as the package's tests do, must not run the CLI
if __name__ == "__main__":
    entry()
