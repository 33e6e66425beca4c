#!/usr/bin/env python3
"""icp_analyze: semantic concurrency analyzer (rules ICP010-ICP014).

Where tools/icp_lint.py pattern-matches lines, this tool reasons about
program structure. It has two interchangeable frontends feeding one
rule engine:

* ``libclang`` — real Clang ASTs driven by build/compile_commands.json
  (generate with ``cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON``).
  This is the mode CI enforces with --require-libclang: atomic member
  calls are resolved through the callee's class, so aliased receivers
  and implicit operator forms (``flag = true`` on a ``std::atomic``)
  cannot hide from the rule.
* ``structural`` — a built-in C++ lexer (comment/string stripping with
  exact offsets) plus bracket matching. It resolves atomic receivers by
  name against every ``std::atomic`` declarator in src/, so the same
  rules run, slightly less precisely, on toolchains without libclang
  (implicit operator forms on aliased receivers are the known gap).

Rules:

  ICP010 atomics-ordering discipline
      Every std::atomic load/store/RMW passes an explicit memory_order
      (compare-exchange passes both success and failure orders). Every
      relaxed order carries an ``// order: relaxed — <why>``
      justification on or directly above the statement. Every
      release/acquire/acq_rel order carries an
      ``// order: <order>(<pair-id>) — <why>`` comment whose pair id
      names a row of the pairing registry in docs/concurrency.md; the
      registry is synced both ways (an undocumented pair id fails, a
      stale table row fails, and a documented pair with sites on only
      one side fails). For compare-exchange, the success order requires
      the annotation; a relaxed failure order additionally requires the
      relaxed justification (a non-relaxed failure order is subsumed by
      the success-order pairing).
  ICP011 cancellation coverage
      Every loop whose header mentions morsels/segments/partitions/
      shards in src/sched, src/groupby, src/parallel, src/scan, or
      src/simd (minus the ICP001-sanctioned kernel TUs) must
      reach a cancellation check in its body or header: directly
      (ShouldStop / IsCancelRequested), through a helper annotated
      ``// cancellation: checks — <why>``, or via an explicit
      ``// cancellation: exempt — <why>`` comment directly above the
      loop.
  ICP012 kernel purity
      The ICP001-sanctioned SIMD translation units (minus
      src/simd/dispatch.cc, which owns stderr/getenv on purpose) must
      not allocate, take locks, throw, or perform I/O.
  ICP013 counter discipline
      ICP_OBS_ADD / ICP_OBS_INCREMENT must not execute inside an
      innermost loop (batch the count and hoist the macro) unless
      annotated ``// obs: loop-ok — <why>``.
  ICP014 thread-safety annotations
      In src/sched/admission.* and src/sched/scheduler.*, every
      mutable member of a mutex-holding class carries ICP_GUARDED_BY
      (or a ``// not-guarded: <why>`` comment), and every *Locked
      helper declares ICP_REQUIRES somewhere in the file set. Clang
      proves the annotations (-Werror=thread-safety in clang builds);
      this rule keeps them present under every compiler.

Usage:
    tools/icp_analyze.py [--root DIR]
                         [--frontend auto|libclang|structural]
                         [--compile-commands PATH]
                         [--require-libclang]

Findings print as ``path:line: [rule] message`` and are stable-sorted.
Exit codes: 0 clean, 1 findings, 2 bad invocation or (with
--require-libclang) missing libclang frontend.
"""

from __future__ import annotations

import argparse
import ctypes.util
import importlib
import json
import os
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

SRC_DIRS = ("src",)
SUFFIXES = (".cc", ".h", ".cpp", ".hpp")

CANCEL_SCOPE_DIRS = (
    "src/sched/",
    "src/groupby/",
    "src/parallel/",
    "src/scan/",
    "src/simd/",
)

# ICP001's sanctioned intrinsics TUs minus dispatch.cc: the dispatcher
# deliberately touches getenv/stderr for tier overrides and logging.
PURITY_TUS = frozenset(
    {
        "src/simd/agg_kernels.cc",
        "src/simd/scan_kernels.cc",
        "src/simd/vbp_pospopcnt.cc",
        "src/simd/word256.h",
    }
)

# The sanctioned kernel TUs stay outside ICP011: each call is one batch
# or morsel of kernel work, and the drivers above them poll between
# calls.
CANCEL_EXEMPT_TUS = PURITY_TUS | {"src/simd/dispatch.cc"}

THREAD_SAFETY_FILES = (
    "src/sched/admission.h",
    "src/sched/admission.cc",
    "src/sched/scheduler.h",
    "src/sched/scheduler.cc",
)

CONCURRENCY_DOC = "docs/concurrency.md"

ATOMIC_METHODS = frozenset(
    {
        "load",
        "store",
        "exchange",
        "fetch_add",
        "fetch_sub",
        "fetch_and",
        "fetch_or",
        "fetch_xor",
        "test_and_set",
        "clear",
    }
)
CAS_METHODS = frozenset(
    {"compare_exchange_weak", "compare_exchange_strong"}
)

ORDER_TOKEN_RE = re.compile(
    r"\bmemory_order(?:_|::)"
    r"(relaxed|consume|acquire|release|acq_rel|seq_cst)\b"
)
ORDER_ANNOT_RE = re.compile(
    r"\border:\s*(relaxed|consume|acquire|release|acq_rel|seq_cst)\b"
    r"\s*(?:\(([A-Za-z0-9_-]+)\))?\s*(?:[—–-]|--)?\s*(.*)"
)
CANCEL_CHECKS_RE = re.compile(r"\bcancellation:\s*checks\b")
CANCEL_EXEMPT_RE = re.compile(r"\bcancellation:\s*exempt\b")
OBS_LOOP_OK_RE = re.compile(r"\bobs:\s*loop-ok\b")
NOT_GUARDED_RE = re.compile(r"\bnot-guarded:\s*\S")

DRAIN_WORD_RE = re.compile(r"(?i)(?:\b|_)(morsel|seg|partition|shard)")
LOOP_HEAD_RE = re.compile(r"\b(for|while)\s*\(")
OBS_MACRO_RE = re.compile(r"\bICP_OBS_(ADD|INCREMENT)\s*\(")
ATOMIC_DECL_RE = re.compile(r"\bstd::atomic(?:_flag)?\b")
ATOMIC_OP_RE = re.compile(
    r"(?:\.|->)\s*("
    r"load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|test_and_set|clear|"
    r"compare_exchange_weak|compare_exchange_strong"
    r")\s*\("
)
LOCKED_HELPER_RE = re.compile(r"\b(\w+Locked)\s*\(")
PAIR_ID_ROW_RE = re.compile(r"^\|\s*`([A-Za-z0-9_-]+)`\s*\|")

# Names that count as a cancellation check without an annotation; the
# annotated-helper registry (``// cancellation: checks``) extends this.
BUILTIN_CHECKERS = frozenset(
    {"ShouldStop", "IsCancelRequested", "ForEachCancellableBatch"}
)

# Words that the atomic-declarator harvest must never mistake for a
# variable name.
NOT_DECLARATOR_NAMES = frozenset(
    {"const", "constexpr", "static", "mutable", "volatile", "operator"}
)


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Loop:
    header_line: int
    header: str
    header_start: int
    body_begin: int
    body_end: int
    innermost: bool = False


@dataclass
class AtomicOp:
    line: int
    end_line: int
    offset: int
    receiver: str
    method: str
    orders: tuple[str, ...]


@dataclass
class OrderAnnotation:
    line: int
    order: str
    pair: str
    why: str


@dataclass
class FileModel:
    relpath: str
    text: str
    code: str
    comments: dict[int, str]
    lines: list[str]
    code_lines: list[str]
    loops: list[Loop] = field(default_factory=list)
    atomic_ops: list[AtomicOp] = field(default_factory=list)
    impurities: list[tuple[int, str]] = field(default_factory=list)


# --------------------------------------------------------------------
# Lexing and geometry
# --------------------------------------------------------------------


def _is_raw_string(text: str, quote: int) -> bool:
    if quote == 0 or text[quote - 1] != "R":
        return False
    if quote == 1:
        return True
    prev = text[quote - 2]
    return not (prev.isalnum() or prev == "_") or prev in "8uUL"


def lex(text: str) -> tuple[str, dict[int, str]]:
    """Blank comments and string/char literals, preserving offsets.

    Returns the blanked code plus a map of line number -> comment text
    (pieces on the same line joined with a space).
    """
    out: list[str] = []
    comments: dict[int, list[str]] = {}
    i = 0
    n = len(text)
    line = 1

    def blank(segment: str) -> str:
        return "".join(c if c == "\n" else " " for c in segment)

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            out.append("\n")
            line += 1
            i += 1
        elif ch == "/" and nxt == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            piece = text[i + 2 : j].strip()
            if piece:
                comments.setdefault(line, []).append(piece)
            out.append(" " * (j - i))
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            segment = text[i:j]
            for k, part in enumerate(segment.split("\n")):
                piece = part.strip()
                piece = piece.removeprefix("/*").removesuffix("*/")
                piece = piece.strip().lstrip("*").strip()
                if piece:
                    comments.setdefault(line + k, []).append(piece)
            out.append(blank(segment))
            line += segment.count("\n")
            i = j
        elif ch == '"' and _is_raw_string(text, i):
            delim_end = text.find("(", i + 1)
            if delim_end < 0:
                out.append(" ")
                i += 1
                continue
            delim = text[i + 1 : delim_end]
            closer = ")" + delim + '"'
            j = text.find(closer, delim_end + 1)
            j = n if j < 0 else j + len(closer)
            segment = text[i:j]
            out.append(blank(segment))
            line += segment.count("\n")
            i = j
        elif ch == '"' or ch == "'":
            if ch == "'" and i > 0 and (
                text[i - 1].isalnum() or text[i - 1] == "_"
            ):
                # Digit separator (1'000'000) or suffix position: not a
                # character literal.
                out.append(" ")
                i += 1
                continue
            j = i + 1
            while j < n and text[j] not in (ch, "\n"):
                j += 2 if text[j] == "\\" else 1
            if j < n and text[j] == ch:
                j += 1
            out.append(" " * (j - i))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out), {
        ln: " ".join(parts) for ln, parts in comments.items()
    }


def line_of(code: str, offset: int) -> int:
    return code.count("\n", 0, offset) + 1


def match_delim(code: str, start: int, open_ch: str, close_ch: str) -> int:
    depth = 0
    for i in range(start, len(code)):
        c = code[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def statement_start_line(model: FileModel, offset: int) -> int:
    j = offset - 1
    while j >= 0 and model.code[j] not in ";{}":
        j -= 1
    k = j + 1
    while k < offset and model.code[k] in " \t\r\n":
        k += 1
    return line_of(model.code, k)


def comment_block_above(model: FileModel, line: int) -> list[tuple[int, str]]:
    """Comments on the contiguous comment-only lines directly above."""
    out: list[tuple[int, str]] = []
    ln = line - 1
    while ln >= 1:
        if model.code_lines[ln - 1].strip():
            break
        if ln in model.comments:
            out.append((ln, model.comments[ln]))
        elif not model.lines[ln - 1].strip():
            break
        ln -= 1
    out.reverse()
    return out


# --------------------------------------------------------------------
# Structural extraction
# --------------------------------------------------------------------


def extract_loops(code: str) -> list[Loop]:
    loops: list[Loop] = []
    for m in LOOP_HEAD_RE.finditer(code):
        open_paren = m.end() - 1
        close_paren = match_delim(code, open_paren, "(", ")")
        if close_paren < 0:
            continue
        header = code[m.start() : close_paren + 1]
        i = close_paren + 1
        while i < len(code) and code[i] in " \t\r\n":
            i += 1
        if i < len(code) and code[i] == "{":
            body_end = match_delim(code, i, "{", "}")
            if body_end < 0:
                body_end = len(code) - 1
        else:
            body_end = code.find(";", i)
            if body_end < 0:
                body_end = len(code) - 1
        loops.append(
            Loop(
                header_line=line_of(code, m.start()),
                header=header,
                header_start=m.start(),
                body_begin=i,
                body_end=body_end,
            )
        )
    for loop in loops:
        loop.innermost = not any(
            other is not loop
            and loop.body_begin < other.header_start < loop.body_end
            for other in loops
        )
    return loops


def harvest_atomic_names(code: str) -> set[str]:
    names: set[str] = set()
    for m in ATOMIC_DECL_RE.finditer(code):
        i = m.end()
        while i < len(code) and code[i] in " \t\r\n":
            i += 1
        if i < len(code) and code[i] == "<":
            i = match_delim(code, i, "<", ">")
            if i < 0:
                continue
            i += 1
        while i < len(code) and code[i] in " \t\r\n*&>":
            i += 1
        nm = re.match(r"[A-Za-z_]\w*", code[i:])
        if nm and nm.group(0) not in NOT_DECLARATOR_NAMES:
            names.add(nm.group(0))
    return names


def _receiver_before(code: str, dot: int) -> str:
    """Identifier of the receiver expression ending just before `dot`."""
    j = dot
    while j > 0 and code[j - 1] in " \t\r\n":
        j -= 1
    if j > 0 and code[j - 1] == "]":
        depth = 0
        while j > 0:
            j -= 1
            if code[j] == "]":
                depth += 1
            elif code[j] == "[":
                depth -= 1
                if depth == 0:
                    break
    end = j
    while j > 0 and (code[j - 1].isalnum() or code[j - 1] == "_"):
        j -= 1
    return code[j:end]


def extract_atomic_ops(
    code: str, atomic_names: set[str]
) -> list[AtomicOp]:
    ops: list[AtomicOp] = []
    for m in ATOMIC_OP_RE.finditer(code):
        receiver = _receiver_before(code, m.start())
        if receiver not in atomic_names:
            continue
        method = m.group(1)
        open_paren = m.end() - 1
        close_paren = match_delim(code, open_paren, "(", ")")
        if close_paren < 0:
            close_paren = len(code) - 1
        args = code[open_paren : close_paren + 1]
        orders = tuple(g for g in ORDER_TOKEN_RE.findall(args))
        ops.append(
            AtomicOp(
                line=line_of(code, m.start()),
                end_line=line_of(code, close_paren),
                offset=m.start(),
                receiver=receiver,
                method=method,
                orders=orders,
            )
        )
    return ops


def extract_impurities(code: str) -> list[tuple[int, str]]:
    banned: tuple[tuple[str, str], ...] = (
        (r"\bnew\b", "allocation ('new')"),
        (r"\bdelete\b", "deallocation ('delete')"),
        (r"\b(?:std::)?(?:malloc|calloc|realloc)\s*\(", "allocation"),
        (r"(?<![\w.])free\s*\(", "deallocation ('free')"),
        (r"\bthrow\b", "exception ('throw')"),
        (
            r"\bstd::(?:vector|deque|list|map|set|unordered_\w+|"
            r"basic_string|string)\b",
            "allocating container",
        ),
        (
            r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
            r"lock_guard|unique_lock|scoped_lock|condition_variable\w*)"
            r"\b",
            "lock type",
        ),
        (r"\.\s*(?:lock|unlock|try_lock)\s*\(", "lock call"),
        (
            r"\b(?:printf|fprintf|sprintf|snprintf|puts|putchar|fopen|"
            r"fread|fwrite|fclose|fflush|getenv|system)\s*\(",
            "I/O or environment call",
        ),
        (
            r"\bstd::(?:cout|cerr|clog|ofstream|ifstream|fstream)\b",
            "stream I/O",
        ),
    )
    out: list[tuple[int, str]] = []
    for pattern, why in banned:
        for m in re.finditer(pattern, code):
            if "delete" in why:
                j = m.start() - 1
                while j >= 0 and code[j] in " \t\r\n":
                    j -= 1
                if j >= 0 and code[j] == "=":
                    continue  # `= delete` declaration, not deallocation
            out.append((line_of(code, m.start()), why))
    return out


def build_model(root: str, relpath: str) -> FileModel:
    text = read_text(os.path.join(root, relpath))
    code, comments = lex(text)
    model = FileModel(
        relpath=relpath,
        text=text,
        code=code,
        comments=comments,
        lines=text.split("\n"),
        code_lines=code.split("\n"),
    )
    model.loops = extract_loops(code)
    return model


# --------------------------------------------------------------------
# libclang frontend
# --------------------------------------------------------------------


def load_cindex() -> Any:
    try:
        cindex: Any = importlib.import_module("clang.cindex")
    except ImportError:
        return None
    try:
        if not cindex.Config.library_file:
            for name in ("clang-14", "clang-15", "clang-16", "clang"):
                path = ctypes.util.find_library(name)
                if path:
                    cindex.Config.set_library_file(path)
                    break
    except Exception:  # noqa: BLE001 - config probing is best-effort
        pass
    try:
        cindex.Index.create()
    except Exception:  # noqa: BLE001 - no loadable libclang
        return None
    return cindex


def load_compile_commands(path: str) -> dict[str, tuple[str, list[str]]]:
    """Map absolute source path -> (directory, clang argument list)."""
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    db: dict[str, tuple[str, list[str]]] = {}
    for entry in entries:
        directory = entry["directory"]
        file_path = entry["file"]
        if not os.path.isabs(file_path):
            file_path = os.path.join(directory, file_path)
        raw: list[str]
        if "arguments" in entry:
            raw = list(entry["arguments"])
        else:
            raw = entry["command"].split()
        args: list[str] = []
        skip_next = False
        for token in raw[1:]:
            if skip_next:
                skip_next = False
                continue
            if token in ("-o", "-c"):
                skip_next = token == "-o"
                continue
            if os.path.normpath(os.path.join(directory, token)) == (
                os.path.normpath(file_path)
            ):
                continue
            args.append(token)
        db[os.path.normpath(file_path)] = (directory, args)
    return db


def compile_args_for(
    db: dict[str, tuple[str, list[str]]], root: str, relpath: str
) -> list[str]:
    abspath = os.path.normpath(os.path.join(root, relpath))
    if abspath in db:
        return db[abspath][1]
    # Headers: borrow flags from a TU in the same directory, else any TU.
    directory = os.path.dirname(abspath)
    for file_path, (_, args) in sorted(db.items()):
        if os.path.dirname(file_path) == directory:
            return ["-x", "c++", *args]
    for _, (_, args) in sorted(db.items()):
        return ["-x", "c++", *args]
    return ["-x", "c++", "-std=c++20"]


def _cursor_in_file(cursor: Any, abspath: str) -> bool:
    loc = cursor.location
    return bool(
        loc.file is not None
        and os.path.normpath(loc.file.name) == abspath
    )


def _walk(tu: Any) -> Iterator[Any]:
    stack = [tu.cursor]
    while stack:
        cursor = stack.pop()
        yield cursor
        stack.extend(cursor.get_children())


def _arg_orders(tu: Any, call: Any) -> tuple[str, ...]:
    orders: list[str] = []
    for arg in call.get_arguments():
        spelling = " ".join(
            t.spelling for t in tu.get_tokens(extent=arg.extent)
        )
        orders.extend(ORDER_TOKEN_RE.findall(spelling))
    return tuple(orders)


def _is_atomic_member(cursor: Any) -> bool:
    ref = cursor.referenced
    if ref is None:
        return False
    parent = ref.semantic_parent
    return bool(parent is not None and "atomic" in parent.spelling)


def libclang_atomic_ops(
    cindex: Any, tu: Any, abspath: str, model: FileModel
) -> tuple[list[AtomicOp], list[Finding]]:
    """Atomic ops via the AST, located back into the lexed text."""
    ops: list[AtomicOp] = []
    extra: list[Finding] = []
    kind_call = cindex.CursorKind.CALL_EXPR
    for cursor in _walk(tu):
        if cursor.kind != kind_call:
            continue
        if not _cursor_in_file(cursor, abspath):
            continue
        name = cursor.spelling
        if name in ATOMIC_METHODS or name in CAS_METHODS:
            if not _is_atomic_member(cursor):
                continue
            ops.append(
                _locate_op(model, cursor.location.line, name, cursor, tu)
            )
        elif name.startswith("operator") and _is_atomic_member(cursor):
            extra.append(
                Finding(
                    model.relpath,
                    cursor.location.line,
                    "ICP010",
                    f"implicit atomic operation '{name}' (defaults to "
                    "seq_cst); use load/store/RMW with an explicit "
                    "memory_order",
                )
            )
    return ops, extra


def _locate_op(
    model: FileModel, ast_line: int, method: str, cursor: Any, tu: Any
) -> AtomicOp:
    orders = _arg_orders(tu, cursor)
    line_start = 0
    for _ in range(ast_line - 1):
        line_start = model.code.find("\n", line_start) + 1
    offset = model.code.find(method, line_start)
    if offset < 0:
        offset = line_start
    end_line = ast_line
    open_paren = model.code.find("(", offset)
    if open_paren >= 0:
        close_paren = match_delim(model.code, open_paren, "(", ")")
        if close_paren >= 0:
            end_line = line_of(model.code, close_paren)
    return AtomicOp(
        line=ast_line,
        end_line=end_line,
        offset=offset,
        receiver=_receiver_before(model.code, offset),
        method=method,
        orders=orders,
    )


def libclang_impurities(
    cindex: Any, tu: Any, abspath: str
) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    kinds = cindex.CursorKind
    banned_calls = {
        "malloc",
        "calloc",
        "realloc",
        "free",
        "printf",
        "fprintf",
        "sprintf",
        "snprintf",
        "puts",
        "putchar",
        "fopen",
        "fread",
        "fwrite",
        "fclose",
        "fflush",
        "getenv",
        "system",
    }
    banned_type_parts = (
        "vector<",
        "basic_string",
        "deque<",
        "map<",
        "mutex",
        "unordered_",
    )
    for cursor in _walk(tu):
        if not _cursor_in_file(cursor, abspath):
            continue
        if cursor.kind == kinds.CXX_NEW_EXPR:
            out.append((cursor.location.line, "allocation ('new')"))
        elif cursor.kind == kinds.CXX_DELETE_EXPR:
            out.append((cursor.location.line, "deallocation ('delete')"))
        elif cursor.kind == kinds.CXX_THROW_EXPR:
            out.append((cursor.location.line, "exception ('throw')"))
        elif cursor.kind == kinds.CALL_EXPR:
            name = cursor.spelling
            ref = cursor.referenced
            parent = ref.semantic_parent if ref is not None else None
            parent_name = parent.spelling if parent is not None else ""
            if name in banned_calls:
                out.append(
                    (cursor.location.line, f"banned call '{name}'")
                )
            elif name in ("lock", "unlock", "try_lock") and (
                "mutex" in parent_name.lower()
            ):
                out.append((cursor.location.line, "lock call"))
        elif cursor.kind in (kinds.VAR_DECL, kinds.FIELD_DECL):
            type_name = cursor.type.spelling
            if any(part in type_name for part in banned_type_parts):
                out.append(
                    (
                        cursor.location.line,
                        f"allocating/locking type '{type_name}'",
                    )
                )
    return out


# --------------------------------------------------------------------
# Annotation registries
# --------------------------------------------------------------------


def harvest_checker_names(models: list[FileModel]) -> set[str]:
    """Helper functions annotated `// cancellation: checks — <why>`."""
    names: set[str] = set(BUILTIN_CHECKERS)
    for model in models:
        for ln, comment in sorted(model.comments.items()):
            if not CANCEL_CHECKS_RE.search(comment):
                continue
            for probe in range(ln + 1, min(ln + 5, len(model.lines) + 1)):
                code_line = model.code_lines[probe - 1]
                m = re.search(r"\b([A-Za-z_]\w*)\s*\(", code_line)
                if m:
                    names.add(m.group(1))
                    break
    return names


def order_annotations_for(model: FileModel, op: AtomicOp) -> list[
    OrderAnnotation
]:
    stmt_line = statement_start_line(model, op.offset)
    candidate_lines = [ln for ln, _ in comment_block_above(model, stmt_line)]
    candidate_lines += [
        ln
        for ln in range(stmt_line, op.end_line + 1)
        if ln in model.comments
    ]
    annotations: list[OrderAnnotation] = []
    for ln in candidate_lines:
        m = ORDER_ANNOT_RE.search(model.comments[ln])
        if m:
            annotations.append(
                OrderAnnotation(
                    line=ln,
                    order=m.group(1),
                    pair=m.group(2) or "",
                    why=(m.group(3) or "").strip(),
                )
            )
    return annotations


# --------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------


def required_orders(op: AtomicOp) -> list[str]:
    """Distinct orders of an op that each need an annotation."""
    if op.method in CAS_METHODS and len(op.orders) == 2:
        success, failure = op.orders
        needed = [success]
        if failure == "relaxed" and success != "relaxed":
            needed.append(failure)
        return needed
    return sorted(set(op.orders))


def check_icp010(
    models: list[FileModel], root: str, findings: list[Finding]
) -> None:
    pair_sides: dict[str, dict[str, list[tuple[str, int]]]] = {}

    def record_pair(pair: str, side: str, model: FileModel, line: int) -> None:
        sides = pair_sides.setdefault(pair, {"release": [], "acquire": []})
        sides[side].append((model.relpath, line))

    for model in models:
        for op in model.atomic_ops:
            expected = 2 if op.method in CAS_METHODS else 1
            if len(op.orders) < expected:
                findings.append(
                    Finding(
                        model.relpath,
                        op.line,
                        "ICP010",
                        f"'{op.receiver}.{op.method}' passes "
                        f"{len(op.orders)} explicit memory_order "
                        f"argument(s); expected {expected} (implicit "
                        "seq_cst is banned)",
                    )
                )
                continue
            annotations = order_annotations_for(model, op)
            for order in required_orders(op):
                match = next(
                    (a for a in annotations if a.order == order), None
                )
                if match is None:
                    suffix = (
                        "(<pair-id>)"
                        if order in ("acquire", "release", "acq_rel")
                        else ""
                    )
                    findings.append(
                        Finding(
                            model.relpath,
                            op.line,
                            "ICP010",
                            f"memory_order_{order} on "
                            f"'{op.receiver}.{op.method}' lacks an "
                            f"'// order: {order}{suffix} — <why>' "
                            "annotation on or above the statement",
                        )
                    )
                    continue
                if not match.why:
                    findings.append(
                        Finding(
                            model.relpath,
                            match.line,
                            "ICP010",
                            f"order annotation '{order}' is missing its "
                            "justification ('— <why>')",
                        )
                    )
                if order in ("acquire", "release", "acq_rel"):
                    if not match.pair:
                        findings.append(
                            Finding(
                                model.relpath,
                                match.line,
                                "ICP010",
                                f"order annotation '{order}' must name "
                                "its pairing: "
                                f"'// order: {order}(<pair-id>) — <why>' "
                                f"(registry: {CONCURRENCY_DOC})",
                            )
                        )
                    else:
                        if order in ("release", "acq_rel"):
                            record_pair(
                                match.pair, "release", model, op.line
                            )
                        if order in ("acquire", "acq_rel"):
                            record_pair(
                                match.pair, "acquire", model, op.line
                            )

    doc_path = os.path.join(root, CONCURRENCY_DOC)
    doc_pairs: dict[str, int] = {}
    if os.path.isfile(doc_path):
        for ln, doc_line in enumerate(
            read_text(doc_path).split("\n"), start=1
        ):
            m = PAIR_ID_ROW_RE.match(doc_line.strip())
            if m and m.group(1).lower() != "pair id":
                doc_pairs[m.group(1)] = ln
    else:
        findings.append(
            Finding(
                CONCURRENCY_DOC,
                1,
                "ICP010",
                "pairing registry document is missing (release/acquire "
                "annotations have nowhere to resolve)",
            )
        )

    for pair, sides in sorted(pair_sides.items()):
        first = (sides["release"] + sides["acquire"])[0]
        if pair not in doc_pairs:
            findings.append(
                Finding(
                    first[0],
                    first[1],
                    "ICP010",
                    f"pair id '{pair}' is not documented in "
                    f"{CONCURRENCY_DOC} (add a registry row)",
                )
            )
            continue
        for side in ("release", "acquire"):
            if not sides[side]:
                findings.append(
                    Finding(
                        first[0],
                        first[1],
                        "ICP010",
                        f"pair id '{pair}' has no {side}-side site in "
                        "code; a one-sided pairing cannot synchronize",
                    )
                )
    for pair, ln in sorted(doc_pairs.items()):
        if pair not in pair_sides:
            findings.append(
                Finding(
                    CONCURRENCY_DOC,
                    ln,
                    "ICP010",
                    f"registry row '{pair}' has no annotated code site "
                    "(stale row: delete it or annotate the sites)",
                )
            )


def check_icp011(
    models: list[FileModel],
    checker_names: set[str],
    findings: list[Finding],
) -> None:
    checker_re = re.compile(
        r"\b(?:"
        + "|".join(re.escape(n) for n in sorted(checker_names))
        + r")\s*\("
    )
    for model in models:
        if not model.relpath.startswith(CANCEL_SCOPE_DIRS):
            continue
        if model.relpath in CANCEL_EXEMPT_TUS:
            continue
        for loop in model.loops:
            word = DRAIN_WORD_RE.search(loop.header)
            if word is None:
                continue
            body = model.code[loop.body_begin : loop.body_end + 1]
            if checker_re.search(body) or checker_re.search(loop.header):
                continue
            block = comment_block_above(model, loop.header_line)
            if any(CANCEL_EXEMPT_RE.search(c) for _, c in block):
                continue
            findings.append(
                Finding(
                    model.relpath,
                    loop.header_line,
                    "ICP011",
                    f"loop over '{word.group(1)}' never reaches a "
                    "cancellation check: call ShouldStop()/an annotated "
                    "'// cancellation: checks' helper in the body, or "
                    "justify with '// cancellation: exempt — <why>' "
                    "directly above the loop",
                )
            )


def check_icp012(
    models: list[FileModel], findings: list[Finding]
) -> None:
    for model in models:
        if model.relpath not in PURITY_TUS:
            continue
        for line, why in model.impurities:
            findings.append(
                Finding(
                    model.relpath,
                    line,
                    "ICP012",
                    f"kernel TU is impure: {why} (sanctioned SIMD TUs "
                    "must not allocate, lock, throw, or do I/O)",
                )
            )


def check_icp013(
    models: list[FileModel], findings: list[Finding]
) -> None:
    for model in models:
        if model.relpath == "src/obs/obs.h":
            continue  # the macro definitions themselves
        for m in OBS_MACRO_RE.finditer(model.code):
            line = line_of(model.code, m.start())
            if model.lines[line - 1].lstrip().startswith("#"):
                continue
            containing = [
                loop
                for loop in model.loops
                if loop.body_begin < m.start() < loop.body_end
            ]
            if not containing:
                continue
            deepest = max(containing, key=lambda x: x.body_begin)
            if not deepest.innermost:
                continue
            stmt_line = statement_start_line(model, m.start())
            block = comment_block_above(model, stmt_line)
            annotated = any(
                OBS_LOOP_OK_RE.search(c) for _, c in block
            ) or (
                line in model.comments
                and OBS_LOOP_OK_RE.search(model.comments[line])
            )
            if annotated:
                continue
            findings.append(
                Finding(
                    model.relpath,
                    line,
                    "ICP013",
                    f"ICP_OBS_{m.group(1)} inside an innermost loop: "
                    "batch the count and hoist the macro, or justify "
                    "with '// obs: loop-ok — <why>'",
                )
            )


MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+)*"
    r"[A-Za-z_][\w:<>,\s\*&\(\)]*?[\s\*&>]"
    r"([A-Za-z_]\w*_)\s*"
    r"(?:ICP_(?:PT_)?GUARDED_BY\s*\(|=(?!=)|\{|;|\[)"
)
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:icp::)?(?:Mutex|std::mutex)\s+\w+\s*;"
)
CLASS_HEAD_RE = re.compile(
    r"\b(class|struct)\s+(?:ICP_\w+\s*(?:\([^)]*\))?\s*)*"
    r"([A-Za-z_]\w*)[^;{\(\)]*\{"
)
EXEMPT_TYPE_RE = re.compile(
    r"std::atomic|atomic_flag|\bMutex\b|std::mutex|condition_variable"
)


def _line_depths(model: FileModel, body_begin: int, body_end: int) -> dict[
    int, int
]:
    """Brace depth at the start of each line inside a class body."""
    depths: dict[int, int] = {}
    depth = 1
    line = line_of(model.code, body_begin)
    depths.setdefault(line, depth)
    for i in range(body_begin + 1, body_end):
        c = model.code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        elif c == "\n":
            line += 1
            depths[line] = depth
    return depths


def check_icp014(
    models: list[FileModel], findings: list[Finding]
) -> None:
    scope = [m for m in models if m.relpath in THREAD_SAFETY_FILES]
    for model in scope:
        for cm in CLASS_HEAD_RE.finditer(model.code):
            body_begin = cm.end() - 1
            body_end = match_delim(model.code, body_begin, "{", "}")
            if body_end < 0:
                continue
            depths = _line_depths(model, body_begin, body_end)
            member_lines = [
                ln for ln, d in sorted(depths.items()) if d == 1
            ]
            has_mutex = any(
                MUTEX_MEMBER_RE.match(model.code_lines[ln - 1])
                for ln in member_lines
                if ln - 1 < len(model.code_lines)
            )
            if not has_mutex:
                continue
            for ln in member_lines:
                if ln - 1 >= len(model.code_lines):
                    continue
                code_line = model.code_lines[ln - 1]
                dm = MEMBER_DECL_RE.match(code_line)
                if dm is None:
                    continue
                member = dm.group(1)
                if "ICP_GUARDED_BY" in code_line or (
                    "ICP_PT_GUARDED_BY" in code_line
                ):
                    continue
                block = comment_block_above(model, ln)
                trailing = model.comments.get(ln, "")
                if any(
                    NOT_GUARDED_RE.search(c) for _, c in block
                ) or NOT_GUARDED_RE.search(trailing):
                    continue
                if EXEMPT_TYPE_RE.search(code_line):
                    continue
                if "&" in code_line[: dm.start(1)]:
                    continue  # reference member: binding is immutable
                if re.match(r"^\s*(?:static|constexpr)\b", code_line):
                    continue
                if re.match(
                    r"^\s*(?:mutable\s+)?const\b", code_line
                ) and "*" not in code_line:
                    continue
                findings.append(
                    Finding(
                        model.relpath,
                        ln,
                        "ICP014",
                        f"member '{member}' of a mutex-holding class "
                        "has no ICP_GUARDED_BY annotation (or "
                        "'// not-guarded: <why>' justification)",
                    )
                )

    # *Locked helpers must declare ICP_REQUIRES on at least one
    # declaration across the file set (definitions don't repeat it).
    sites: dict[str, list[tuple[str, int, bool]]] = {}
    for model in scope:
        for m in LOCKED_HELPER_RE.finditer(model.code):
            line = line_of(model.code, m.start())
            stop = min(line + 1, len(model.code_lines))
            window = "\n".join(model.code_lines[line - 1 : stop])
            sites.setdefault(m.group(1), []).append(
                (model.relpath, line, "ICP_REQUIRES" in window)
            )
    for name, occurrences in sorted(sites.items()):
        if any(ok for _, _, ok in occurrences):
            continue
        path, line, _ = occurrences[0]
        findings.append(
            Finding(
                path,
                line,
                "ICP014",
                f"lock-held helper '{name}' has no declaration with "
                "ICP_REQUIRES(<mutex>)",
            )
        )


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------


def iter_source_files(root: str) -> list[str]:
    out: list[str] = []
    for base in SRC_DIRS:
        top = os.path.join(root, base)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SUFFIXES):
                    full = os.path.join(dirpath, name)
                    out.append(os.path.relpath(full, root))
    return sorted(out)


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def populate_structural(models: list[FileModel]) -> None:
    atomic_names: set[str] = set()
    for model in models:
        atomic_names |= harvest_atomic_names(model.code)
    for model in models:
        model.atomic_ops = extract_atomic_ops(model.code, atomic_names)
        if model.relpath in PURITY_TUS:
            model.impurities = extract_impurities(model.code)


def populate_libclang(
    cindex: Any,
    models: list[FileModel],
    root: str,
    compile_commands: str,
    findings: list[Finding],
) -> None:
    db = load_compile_commands(compile_commands)
    index = cindex.Index.create()
    atomic_names: set[str] = set()
    for model in models:
        atomic_names |= harvest_atomic_names(model.code)
    for model in models:
        abspath = os.path.normpath(os.path.join(root, model.relpath))
        args = compile_args_for(db, root, model.relpath)
        try:
            tu = index.parse(abspath, args=args)
        except Exception:  # noqa: BLE001 - fall back per file
            model.atomic_ops = extract_atomic_ops(
                model.code, atomic_names
            )
            if model.relpath in PURITY_TUS:
                model.impurities = extract_impurities(model.code)
            continue
        ops, extra = libclang_atomic_ops(cindex, tu, abspath, model)
        model.atomic_ops = ops
        findings.extend(extra)
        if model.relpath in PURITY_TUS:
            model.impurities = libclang_impurities(cindex, tu, abspath)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="icp_analyze.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument(
        "--root",
        default=default_root,
        help="repo root to analyze (default: the checkout containing "
        "this script)",
    )
    parser.add_argument(
        "--frontend",
        choices=("auto", "libclang", "structural"),
        default="auto",
        help="AST frontend: libclang (needs clang.cindex + a loadable "
        "libclang), the built-in structural lexer, or auto-pick "
        "(default)",
    )
    parser.add_argument(
        "--compile-commands",
        default=None,
        help="compilation database for the libclang frontend "
        "(default: <root>/build/compile_commands.json)",
    )
    parser.add_argument(
        "--require-libclang",
        action="store_true",
        help="fail (exit 2) instead of falling back to the structural "
        "frontend; CI sets this so AST-grade checking cannot silently "
        "degrade",
    )
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"icp_analyze: no such directory: {root}", file=sys.stderr)
        return 2

    compile_commands = args.compile_commands or os.path.join(
        root, "build", "compile_commands.json"
    )

    cindex: Any = None
    if args.frontend in ("auto", "libclang"):
        cindex = load_cindex()
        if cindex is not None and not os.path.isfile(compile_commands):
            cindex = None
            if args.frontend == "libclang" or args.require_libclang:
                print(
                    "icp_analyze: libclang frontend needs "
                    f"{compile_commands} (configure with "
                    "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)",
                    file=sys.stderr,
                )
                return 2
        if cindex is None and (
            args.frontend == "libclang" or args.require_libclang
        ):
            print(
                "icp_analyze: libclang frontend unavailable (no "
                "clang.cindex module or no loadable libclang)",
                file=sys.stderr,
            )
            return 2

    models = [
        build_model(root, relpath) for relpath in iter_source_files(root)
    ]
    findings: list[Finding] = []
    if cindex is not None:
        populate_libclang(
            cindex, models, root, compile_commands, findings
        )
    else:
        populate_structural(models)

    checker_names = harvest_checker_names(models)
    check_icp010(models, root, findings)
    check_icp011(models, checker_names, findings)
    check_icp012(models, findings)
    check_icp013(models, findings)
    check_icp014(models, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    for finding in findings:
        print(finding.render())
    if findings:
        print(
            f"icp_analyze: {len(findings)} finding(s)", file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
