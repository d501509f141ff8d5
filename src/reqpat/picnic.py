"""Canonical natural-language paraphrases of requirements, and traceability
reports.

Rendering a requirement back into controlled prose lets an analyst put the
generated sentence next to the original statement and spot divergence before
any verification runs. The phrase table is fixed: stable wording matters more
than elegant wording, because the sentences are compared across revisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .conditions import Condition
from .patterns import TAGS, Pattern, Requirement, Scope, parameters
from .suite import Suite


# One phrase template per catalogue tag, filled from the variant's fields.
PHRASES: dict[str, str] = {
    "absence": "it is never the case that {p} holds",
    "universality": "it is always the case that {p} holds",
    "existence": "{p} eventually holds",
    "bounded_existence": "{p} holds in at most {k} episodes",
    "precedence": "{s} precedes {p}",
    "response": "{s} responds to {p}{strict}",
    "response_chain": "{chain} respond in order to {p}",
    "precedence_chain": "{chain} precede in order {p}",
    "globally": "globally",
    "before": "before {r}",
    "after": "after {q}",
    "between": "between {q} and {r}",
    "after_until": "after {q} until {r}",
}


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
        template = PHRASES.get(TAGS.get(type(variant)))
        if template is None:
            raise PicnicError(req.name, f"no phrase for {variant!r}")
        words = {}
        for key in parameters(type(variant)):
            value = getattr(variant, key)
            if isinstance(value, Condition):
                value = name_of(value)
            elif isinstance(value, tuple):
                value = ", ".join(map(name_of, value))
            elif isinstance(value, bool):  # a set flag reads as its adverb: " strictly"
                value = f" {key}ly" if value else ""
            words[key] = value
        return template.format_map(words)

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
    repository location; absent links render as an em dash."""
    names = suite.names_by_condition()

    def link(label: str, url: str | None) -> str:
        return f"[{label}]({url})" if url else "—"

    rows = [
        "| Name | Paraphrase | Source | Repo |",
        "| --- | --- | --- | --- |",
    ]
    for req in suite.requirements:
        phrase = render_requirement(req, names).phrase
        rows.append(
            f"| {req.name} | {phrase} | "
            f"{link('Source', req.meta.source_url)} | {link('Repo', req.meta.repo_url)} |"
        )
    return "".join(row + "\n" for row in rows)
