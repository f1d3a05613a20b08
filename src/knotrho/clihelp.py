"""Usage lines and help pages of the command line, for `knotrho.cli`.

Text wraps at WIDTH columns whatever the terminal's width.  `knotrho.cli`
imports this module only to print help or a usage error, so a command
that runs does not load it.
"""

from __future__ import annotations

import textwrap

WIDTH = 78


def format_usage(path: str, args: str) -> str:
    prefix = f"Usage: {path} "
    if len(prefix) + 20 <= WIDTH:
        return textwrap.fill(args, WIDTH, initial_indent=prefix, subsequent_indent=" " * len(prefix))
    indent = " " * 11  # a long program path: the arguments go below it
    return f"{prefix}\n" + textwrap.fill(args, WIDTH, initial_indent=indent, subsequent_indent=indent)


def format_help(usage: str, doc: str, options, commands: dict[str, str] | None = None) -> str:
    """The help page: usage, `doc` rewrapped by paragraph, the options and,
    for the program, its commands ({name: help text}) with the first
    sentence of their help."""
    paragraphs = [
        textwrap.fill(" ".join(line.strip() for line in par.splitlines()), WIDTH,
                      initial_indent="  ", subsequent_indent="  ")
        for par in doc.split("\n\n")
    ]
    parts = [usage, "\n\n".join(paragraphs), "Options:\n" + definition_list(map(option_row, options))]
    if commands:
        limit = WIDTH - 6 - max(map(len, commands))
        rows = [(name, short_help(commands[name], limit)) for name in sorted(commands)]
        parts.append("Commands:\n" + definition_list(rows))
    return "\n\n".join(parts)


def option_row(param) -> tuple[str, str]:
    """(`--name METAVAR`, help text with its [env var; default; required]
    notes) of a `knotrho.cli.Param`."""
    extra = []
    if param.envvar:
        extra.append(f"env var: {param.envvar}")
    if param.show_default:
        extra.append(f"default: {param.default}")
    if param.required:
        extra.append("required")
    text = param.help
    if extra:
        text = f"{text}  [{'; '.join(extra)}]" if text else f"[{'; '.join(extra)}]"
    return (param.name if param.type is bool else f"{param.name} {param.metavar}"), text


def definition_list(rows) -> str:
    """Two columns at indent 2: the second starts after the widest first
    entry (at most 30 wide) and wraps within WIDTH."""
    rows = list(rows)
    col = min(max(len(first) for first, _ in rows), 30) + 2
    lines = []
    for first, second in rows:
        if not second:
            lines.append(f"  {first}")
            continue
        wrapped = textwrap.wrap(second, max(WIDTH - col - 2, 10)) or [""]
        head = f"  {first:<{col}}" if len(first) <= col - 2 else f"  {first}\n{'':{col + 2}}"
        lines.append(head + wrapped[0])
        lines += [f"{'':{col + 2}}{line}" for line in wrapped[1:]]
    return "\n".join(lines)


def short_help(doc: str, limit: int) -> str:
    """The first sentence of a command's help, or as many of its first
    words as fit in `limit` characters with '...'."""
    words = doc.split("\n\n")[0].split()
    total = -1
    for i, word in enumerate(words):
        total += len(word) + 1
        if total > limit:
            break
        if word.endswith("."):
            return " ".join(words[: i + 1])
        if total == limit and i != len(words) - 1:
            break
    else:
        return " ".join(words)
    total += 3
    while i > 0:
        total -= len(words[i]) + 1
        if total <= limit:
            break
        i -= 1
    return " ".join(words[:i]) + "..."
