"""Table rendering for benchmark results: paper-vs-measured."""


def render_table(title, columns, rows):
    """Plain-text table; ``rows`` are dicts keyed by column name."""
    widths = {
        col: max(len(col), *(len(_fmt(row.get(col))) for row in rows)) if rows
        else len(col)
        for col in columns
    }
    lines = [title, "-" * len(title)]
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("  ".join("-" * widths[col] for col in columns))
    for row in rows:
        lines.append(
            "  ".join(_fmt(row.get(col)).ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
