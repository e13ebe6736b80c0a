"""``python -m tamilstem``: the command-line interface."""

if __name__ == "__main__":
    from .cli import entry

    entry()
