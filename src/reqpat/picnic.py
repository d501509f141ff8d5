"""Canonical natural-language paraphrases of requirements, and traceability
reports.

Rendering a requirement back into controlled prose lets an analyst put the
generated sentence next to the original statement and spot divergence before
any verification runs. Each pattern and scope class carries its fixed phrase
template: stable wording matters more than elegant wording, because the
sentences are compared across revisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .conditions import Condition
from .patterns import Pattern, Requirement, Scope, mapped_fields
from .suite import Suite


class PicnicError(ValueError):
    def __init__(self, requirement: str, detail: str):
        super().__init__(f"requirement {requirement!r}: {detail}")
        self.requirement = requirement


@dataclass(frozen=True)
class PicnicLine:
    name: str
    phrase: str

    def render(self) -> str:
        return f"{self.name}: {self.phrase}"


def render_requirement(req: Requirement, names: Mapping[Condition, str]) -> PicnicLine:
    """Build the canonical paraphrase, naming conditions via `names`."""

    def name_of(cond: Condition) -> str:
        name = names.get(cond)
        if name is None:
            raise PicnicError(req.name, "a referenced condition has no display name")
        return name

    def phrase(variant: Pattern | Scope) -> str:
        words = {}
        for key, value in mapped_fields(variant, name_of).items():
            if isinstance(value, tuple):
                value = ", ".join(value)
            elif isinstance(value, bool):  # a set flag reads as its adverb: " strictly"
                value = f" {key}ly" if value else ""
            words[key] = value
        return variant.phrase.format_map(words)

    return PicnicLine(name=req.name, phrase=f"{phrase(req.pattern)} {phrase(req.scope)}")


def render_suite_report(suite: Suite) -> str:
    """One paraphrase line per requirement, in suite order, each followed by
    the source quote it should be compared against, when one is recorded."""
    names = suite.names_by_condition()
    lines = []
    for req in suite.requirements:
        lines.append(render_requirement(req, names).render())
        if req.meta.source_quote:
            lines.append(f'    source: "{req.meta.source_quote}"')
    return "".join(line + "\n" for line in lines)


def traceability_report(suite: Suite) -> str:
    """Markdown table linking each requirement to its source document and its
    repository location; absent links render as an em dash. A '|' in any
    cell is escaped as a backslash and '|', so it cannot split the cell."""
    names = suite.names_by_condition()

    def link(label: str, url: str | None) -> str:
        return f"[{label}]({url})" if url else "—"

    rows = ["| Name | Paraphrase | Source | Repo |", "| --- | --- | --- | --- |"]
    for req in suite.requirements:
        phrase = render_requirement(req, names).phrase
        cells = (req.name, phrase, link("Source", req.meta.source_url), link("Repo", req.meta.repo_url))
        rows.append("| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |")
    return "".join(row + "\n" for row in rows)
