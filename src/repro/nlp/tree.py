"""Syntax-tree view of parsed sentences and an ASCII renderer.

Reproduces Figure 2 of the paper: the tree for Req-17 shows the sentence
decomposed into a ``when`` subclause and a main clause, each with subject
and predicate leaves, and the ``eventually`` modifier attached to the main
clause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .grammar import Clause, ClauseGroup, Sentence, SubClause


@dataclass
class TreeNode:
    """A node of the rendered syntax tree."""

    label: str
    text: str = ""
    children: List["TreeNode"] = field(default_factory=list)

    def add(self, label: str, text: str = "") -> "TreeNode":
        child = TreeNode(label, text)
        self.children.append(child)
        return child


def syntax_tree(sentence: Sentence) -> TreeNode:
    """Build the Figure-2 style syntax tree for a parsed sentence."""
    root = TreeNode("sentence", sentence.text)
    for sub in sentence.pre:
        _subclause_node(root, sub)
    _group_node(root, sentence.main, label="clause")
    for sub in sentence.post:
        _subclause_node(root, sub)
    return root


def _subclause_node(parent: TreeNode, sub: SubClause) -> None:
    node = parent.add("subclause")
    node.add("subordinator", sub.subordinator)
    _group_node(node, sub.group, label="clause")


def _group_node(parent: TreeNode, group: ClauseGroup, label: str) -> None:
    for position, clause in enumerate(group.clauses):
        if position > 0:
            parent.add("conjunction", group.connectives[position - 1])
        _clause_node(parent, clause, label)


def _clause_node(parent: TreeNode, clause: Clause, label: str) -> None:
    node = parent.add(label)
    if clause.modifier:
        node.add("modifier", clause.modifier)
    if clause.next_marker:
        node.add("subordinator", "next")
    subject = (
        f" {clause.subject_conjunction} ".join(clause.subjects)
        if clause.subject_conjunction
        else " ".join(clause.subjects)
    )
    node.add("subject", subject)
    node.add("predicate", _predicate_text(clause))
    if clause.constraint:
        node.add("constraint", f"in {clause.constraint.value} {clause.constraint.unit}")


def _predicate_text(clause: Clause) -> str:
    parts: List[str] = []
    if clause.modality:
        parts.append(clause.modality)
    if clause.negated:
        parts.append("not")
    if clause.verb is not None and clause.passive:
        parts.extend(["be", clause.verb + " (passive)"])
    elif clause.verb is not None and clause.progressive:
        parts.extend(["be", clause.verb + " (progressive)"])
    elif clause.verb is not None:
        parts.append(clause.verb)
    if clause.particle:
        parts.append(clause.particle)
    if clause.complement:
        parts.extend(["be", clause.complement])
    if clause.object:
        parts.append(clause.object)
    return " ".join(parts)


def render(node: TreeNode, indent: str = "") -> str:
    """Render a tree as indented ASCII, one node per line."""
    own = f"{indent}{node.label}"
    if node.text:
        own += f": {node.text}"
    lines = [own]
    for position, child in enumerate(node.children):
        last = position == len(node.children) - 1
        branch = "`-- " if last else "|-- "
        continuation = "    " if last else "|   "
        sub = render(child, "")
        sub_lines = sub.splitlines()
        lines.append(f"{indent}{branch}{sub_lines[0]}")
        lines.extend(f"{indent}{continuation}{line}" for line in sub_lines[1:])
    return "\n".join(lines)


def render_sentence(sentence: Sentence) -> str:
    """Parse-tree rendering used by the Figure-2 benchmark and examples."""
    return render(syntax_tree(sentence))
