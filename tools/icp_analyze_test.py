#!/usr/bin/env python3
"""Self-test for tools/icp_analyze.py.

Each test copies the clean fixture tree (tools/analyze_fixtures/clean)
into a temp dir, plants one violation, runs the analyzer as a
subprocess, and asserts the expected rule fires with a file:line
message. A clean-tree run asserts zero findings; a real-tree splice
case copies the actual src/ + docs/concurrency.md, strips the relaxed
justification off a real scheduler atomic, and asserts ICP010 catches
it — the acceptance-criterion case for this analyzer.

All cases run under the structural frontend so they pass on toolchains
without libclang; the libclang frontend shares the rule engine and is
exercised by CI's --require-libclang job.

Run directly (`python3 tools/icp_analyze_test.py`) or via ctest
(`ctest -R icp_analyze`).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TOOLS_DIR)
ANALYZER = os.path.join(TOOLS_DIR, "icp_analyze.py")
CLEAN_FIXTURE = os.path.join(TOOLS_DIR, "analyze_fixtures", "clean")


def run_analyzer(root: str, *extra: str) -> tuple[int, str, str]:
    proc = subprocess.run(
        [
            sys.executable,
            ANALYZER,
            "--root",
            root,
            "--frontend",
            "structural",
            *extra,
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write(root: str, relpath: str, content: str) -> None:
    path = os.path.join(root, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def append(root: str, relpath: str, content: str) -> None:
    with open(os.path.join(root, relpath), "a", encoding="utf-8") as f:
        f.write(content)


class AnalyzeFixtureTest(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix="icp_analyze_test_")
        self.root = self._tmp.name
        shutil.copytree(CLEAN_FIXTURE, self.root, dirs_exist_ok=True)

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def assert_finding(
        self, rule: str, needle: str, expect_path: str | None = None
    ) -> None:
        code, out, _ = run_analyzer(self.root)
        self.assertEqual(code, 1, f"expected findings, got:\n{out}")
        matching = [
            line
            for line in out.splitlines()
            if f"[{rule}]" in line and needle in line
        ]
        self.assertTrue(
            matching, f"no [{rule}] finding mentioning {needle!r} in:\n{out}"
        )
        if expect_path is not None:
            self.assertTrue(
                any(line.startswith(expect_path + ":") for line in matching),
                f"finding does not point at {expect_path}:<line>:\n{out}",
            )

    def assert_clean(self) -> None:
        code, out, err = run_analyzer(self.root)
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        self.assertEqual(out, "")

    # -- baseline ----------------------------------------------------

    def test_clean_tree_has_zero_findings(self) -> None:
        self.assert_clean()

    def test_findings_carry_file_line_prefix(self) -> None:
        append(
            self.root,
            "src/sched/worker.cc",
            "namespace fix {\nvoid Implicit() { ready.store(2); }\n}\n",
        )
        code, out, _ = run_analyzer(self.root)
        self.assertEqual(code, 1)
        first = out.splitlines()[0]
        path, line, rest = first.split(":", 2)
        self.assertEqual(path, "src/sched/worker.cc")
        self.assertTrue(line.isdigit())
        self.assertIn("[ICP010]", rest)

    # -- ICP010: atomics-ordering discipline -------------------------

    def test_implicit_seq_cst_store_fires(self) -> None:
        append(
            self.root,
            "src/sched/worker.cc",
            "namespace fix {\nvoid Implicit() { ready.store(2); }\n}\n",
        )
        self.assert_finding(
            "ICP010", "0 explicit memory_order", "src/sched/worker.cc"
        )

    def test_unjustified_relaxed_fires(self) -> None:
        append(
            self.root,
            "src/sched/worker.cc",
            "namespace fix {\n"
            "void Bare() {\n"
            "  polls.fetch_add(1, std::memory_order_relaxed);\n"
            "}\n"
            "}\n",
        )
        self.assert_finding(
            "ICP010", "memory_order_relaxed", "src/sched/worker.cc"
        )

    def test_release_without_pair_id_fires(self) -> None:
        append(
            self.root,
            "src/sched/worker.cc",
            "namespace fix {\n"
            "void NoPair() {\n"
            "  // order: release — lost the pairing name.\n"
            "  ready.store(3, std::memory_order_release);\n"
            "}\n"
            "}\n",
        )
        self.assert_finding(
            "ICP010", "must name its pairing", "src/sched/worker.cc"
        )

    def test_undocumented_pair_id_fires(self) -> None:
        append(
            self.root,
            "src/sched/worker.cc",
            "namespace fix {\n"
            "std::atomic<int> side{0};\n"
            "void Mystery() {\n"
            "  // order: release(mystery-pair) — not in the registry.\n"
            "  side.store(1, std::memory_order_release);\n"
            "}\n"
            "int PeekMystery() {\n"
            "  // order: acquire(mystery-pair) — not in the registry.\n"
            "  return side.load(std::memory_order_acquire);\n"
            "}\n"
            "}\n",
        )
        self.assert_finding(
            "ICP010", "'mystery-pair' is not documented",
            "src/sched/worker.cc",
        )

    def test_stale_registry_row_fires(self) -> None:
        append(
            self.root,
            "docs/concurrency.md",
            "| `ghost-pair` | gone | gone | gone | Nothing. |\n",
        )
        self.assert_finding(
            "ICP010", "'ghost-pair' has no annotated code site",
            "docs/concurrency.md",
        )

    def test_one_sided_pair_fires(self) -> None:
        append(
            self.root,
            "docs/concurrency.md",
            "| `half-pair` | `fix::side` | store | (missing) | TBD. |\n",
        )
        append(
            self.root,
            "src/sched/worker.cc",
            "namespace fix {\n"
            "std::atomic<int> side{0};\n"
            "void HalfPublish() {\n"
            "  // order: release(half-pair) — release with no acquire.\n"
            "  side.store(1, std::memory_order_release);\n"
            "}\n"
            "}\n",
        )
        self.assert_finding(
            "ICP010", "no acquire-side site", "src/sched/worker.cc"
        )

    def test_cas_with_single_order_fires(self) -> None:
        append(
            self.root,
            "src/sched/worker.cc",
            "namespace fix {\n"
            "void HalfCas() {\n"
            "  std::uint64_t expected = 0;\n"
            "  // order: relaxed — fixture latch.\n"
            "  ready.compare_exchange_strong(expected, 1,\n"
            "                                std::memory_order_relaxed);\n"
            "}\n"
            "}\n",
        )
        self.assert_finding(
            "ICP010", "expected 2", "src/sched/worker.cc"
        )

    def test_annotation_in_unrelated_comment_does_not_cover(self) -> None:
        # The justification must sit on or directly above the statement;
        # one a blank line away does not attach.
        append(
            self.root,
            "src/sched/worker.cc",
            "namespace fix {\n"
            "void Detached() {\n"
            "  // order: relaxed — too far away to count.\n"
            "\n"
            "  polls.fetch_add(1, std::memory_order_relaxed);\n"
            "}\n"
            "}\n",
        )
        self.assert_finding(
            "ICP010", "memory_order_relaxed", "src/sched/worker.cc"
        )

    # -- ICP011: cancellation coverage -------------------------------

    def test_uncancellable_drain_loop_fires(self) -> None:
        write(
            self.root,
            "src/sched/drain.cc",
            "namespace fix {\n"
            "int Drain(int num_morsels) {\n"
            "  int done = 0;\n"
            "  for (int morsel = 0; morsel < num_morsels; ++morsel) {\n"
            "    ++done;\n"
            "  }\n"
            "  return done;\n"
            "}\n"
            "}  // namespace fix\n",
        )
        self.assert_finding(
            "ICP011", "loop over 'morsel'", "src/sched/drain.cc"
        )

    def test_snake_case_segment_bound_is_in_scope(self) -> None:
        write(
            self.root,
            "src/scan/sweep.cc",
            "namespace fix {\n"
            "int Sweep(int num_segments) {\n"
            "  int acc = 0;\n"
            "  for (int i = 0; i < num_segments; ++i) acc += i;\n"
            "  return acc;\n"
            "}\n"
            "}  // namespace fix\n",
        )
        self.assert_finding(
            "ICP011", "loop over 'seg'", "src/scan/sweep.cc"
        )

    def test_annotated_helper_covers_loop(self) -> None:
        write(
            self.root,
            "src/sched/drain.cc",
            "namespace fix {\n"
            "bool PollCancelled();\n"
            "int Drain(int num_morsels) {\n"
            "  int done = 0;\n"
            "  for (int morsel = 0; morsel < num_morsels; ++morsel) {\n"
            "    if (PollCancelled()) break;\n"
            "    ++done;\n"
            "  }\n"
            "  return done;\n"
            "}\n"
            "}  // namespace fix\n",
        )
        self.assert_clean()

    def test_exemption_separated_by_blank_line_fires(self) -> None:
        write(
            self.root,
            "src/sched/drain.cc",
            "namespace fix {\n"
            "int Drain(int num_shards) {\n"
            "  int done = 0;\n"
            "  // cancellation: exempt — detached by the blank line.\n"
            "\n"
            "  for (int shard = 0; shard < num_shards; ++shard) ++done;\n"
            "  return done;\n"
            "}\n"
            "}  // namespace fix\n",
        )
        self.assert_finding(
            "ICP011", "loop over 'shard'", "src/sched/drain.cc"
        )

    def test_simd_driver_loop_fires(self) -> None:
        write(
            self.root,
            "src/simd/driver.cc",
            "namespace fix {\n"
            "int Walk(int num_segments) {\n"
            "  int acc = 0;\n"
            "  for (int seg = 0; seg < num_segments; ++seg) ++acc;\n"
            "  return acc;\n"
            "}\n"
            "}  // namespace fix\n",
        )
        self.assert_finding(
            "ICP011", "loop over 'seg'", "src/simd/driver.cc"
        )

    def test_sanctioned_kernel_tu_keeps_its_exemption(self) -> None:
        append(
            self.root,
            "src/simd/agg_kernels.cc",
            "namespace fix {\n"
            "int Fold(int num_segments) {\n"
            "  int acc = 0;\n"
            "  for (int seg = 0; seg < num_segments; ++seg) ++acc;\n"
            "  return acc;\n"
            "}\n"
            "}  // namespace fix\n",
        )
        self.assert_clean()

    def test_out_of_scope_dir_is_ignored(self) -> None:
        write(
            self.root,
            "src/io/reader.cc",
            "namespace fix {\n"
            "int Read(int num_segments) {\n"
            "  int acc = 0;\n"
            "  for (int seg = 0; seg < num_segments; ++seg) ++acc;\n"
            "  return acc;\n"
            "}\n"
            "}  // namespace fix\n",
        )
        self.assert_clean()

    # -- ICP012: kernel purity ---------------------------------------

    def test_kernel_allocation_fires(self) -> None:
        append(
            self.root,
            "src/simd/agg_kernels.cc",
            "namespace fix::kern {\n"
            "std::uint64_t* Alloc(std::uint64_t n) {\n"
            "  return new std::uint64_t[n];\n"
            "}\n"
            "}\n",
        )
        self.assert_finding(
            "ICP012", "allocation ('new')", "src/simd/agg_kernels.cc"
        )

    def test_kernel_lock_fires(self) -> None:
        append(
            self.root,
            "src/simd/agg_kernels.cc",
            "#include <mutex>\n"
            "namespace fix::kern {\n"
            "std::mutex kernel_mu;\n"
            "}\n",
        )
        self.assert_finding(
            "ICP012", "lock type", "src/simd/agg_kernels.cc"
        )

    def test_kernel_io_fires(self) -> None:
        append(
            self.root,
            "src/simd/agg_kernels.cc",
            "#include <cstdio>\n"
            "namespace fix::kern {\n"
            "void Log(std::uint64_t n) {\n"
            '  printf("acc=%llu\\n", (unsigned long long)n);\n'
            "}\n"
            "}\n",
        )
        self.assert_finding(
            "ICP012", "I/O or environment", "src/simd/agg_kernels.cc"
        )

    def test_kernel_throw_fires(self) -> None:
        append(
            self.root,
            "src/simd/agg_kernels.cc",
            "namespace fix::kern {\n"
            "void Boom() { throw 1; }\n"
            "}\n",
        )
        self.assert_finding(
            "ICP012", "exception ('throw')", "src/simd/agg_kernels.cc"
        )

    def test_deleted_function_is_not_deallocation(self) -> None:
        append(
            self.root,
            "src/simd/agg_kernels.cc",
            "namespace fix::kern {\n"
            "struct NoCopy {\n"
            "  NoCopy(const NoCopy&) = delete;\n"
            "};\n"
            "}\n",
        )
        self.assert_clean()

    def test_unsanctioned_tu_is_not_purity_checked(self) -> None:
        write(
            self.root,
            "src/io/writer.cc",
            "#include <cstdio>\n"
            "namespace fix {\n"
            'void Put() { printf("ok\\n"); }\n'
            "}\n",
        )
        self.assert_clean()

    # -- ICP013: counter discipline ----------------------------------

    def test_obs_macro_in_innermost_loop_fires(self) -> None:
        append(
            self.root,
            "src/obs/counters.cc",
            "namespace fix {\n"
            "void HotLoop(std::uint64_t n) {\n"
            "  for (std::uint64_t i = 0; i < n; ++i) {\n"
            "    ICP_OBS_INCREMENT(WordsScanned);\n"
            "  }\n"
            "}\n"
            "}\n",
        )
        self.assert_finding(
            "ICP013", "innermost loop", "src/obs/counters.cc"
        )

    def test_obs_macro_in_outer_loop_is_fine(self) -> None:
        append(
            self.root,
            "src/obs/counters.cc",
            "namespace fix {\n"
            "void PerBlock(std::uint64_t n) {\n"
            "  for (std::uint64_t b = 0; b < n; b += 64) {\n"
            "    std::uint64_t acc = 0;\n"
            "    for (std::uint64_t i = b; i < b + 64; ++i) acc += i;\n"
            "    ICP_OBS_ADD(WordsScanned, acc);\n"
            "  }\n"
            "}\n"
            "}\n",
        )
        self.assert_clean()

    # -- ICP014: thread-safety annotations ---------------------------

    def test_unguarded_member_fires(self) -> None:
        content = read(self.root, "src/sched/admission.h").replace(
            "  int active_ ICP_GUARDED_BY(mu_) = 0;",
            "  int active_ ICP_GUARDED_BY(mu_) = 0;\n  int pending_ = 0;",
        )
        write(self.root, "src/sched/admission.h", content)
        self.assert_finding(
            "ICP014", "member 'pending_'", "src/sched/admission.h"
        )

    def test_locked_helper_without_requires_fires(self) -> None:
        content = read(self.root, "src/sched/admission.h").replace(
            "  int GrantLocked() const ICP_REQUIRES(mu_);",
            "  int GrantLocked() const ICP_REQUIRES(mu_);\n"
            "  void EvictLocked();",
        )
        write(self.root, "src/sched/admission.h", content)
        self.assert_finding(
            "ICP014", "'EvictLocked'", "src/sched/admission.h"
        )

    def test_mutexless_class_is_not_checked(self) -> None:
        append(
            self.root,
            "src/sched/admission.h",
            "class Stats {\n"
            " public:\n"
            "  int snapshots_ = 0;\n"
            "};\n",
        )
        self.assert_clean()

    # -- real-tree splice cases --------------------------------------

    def _copy_real_tree(self) -> None:
        shutil.rmtree(os.path.join(self.root, "src"))
        shutil.rmtree(os.path.join(self.root, "docs"))
        shutil.copytree(
            os.path.join(REPO_ROOT, "src"), os.path.join(self.root, "src")
        )
        os.makedirs(os.path.join(self.root, "docs"))
        shutil.copy(
            os.path.join(REPO_ROOT, "docs", "concurrency.md"),
            os.path.join(self.root, "docs", "concurrency.md"),
        )

    def test_real_tree_copy_is_clean(self) -> None:
        self._copy_real_tree()
        self.assert_clean()

    def test_real_scheduler_splice_unjustified_relaxed(self) -> None:
        # The acceptance-criterion case: take the real scheduler TU and
        # strip the justification comment off one of its relaxed
        # atomics — the exact shape of an under-reviewed "just make it
        # relaxed" edit. The analyzer must refuse it.
        self._copy_real_tree()
        sched = os.path.join(self.root, "src", "sched", "scheduler.cc")
        with open(sched, encoding="utf-8") as f:
            lines = f.readlines()
        stripped = [
            line
            for line in lines
            if not line.lstrip().startswith("// order: relaxed")
        ]
        self.assertLess(
            len(stripped),
            len(lines),
            "real scheduler.cc no longer has relaxed justifications — "
            "update this test",
        )
        with open(sched, "w", encoding="utf-8") as f:
            f.writelines(stripped)
        self.assert_finding(
            "ICP010", "memory_order_relaxed", "src/sched/scheduler.cc"
        )

    def test_real_scheduler_splice_retagged_pair_fires(self) -> None:
        # Renaming a pairing in code without updating the registry must
        # fail from the code side (undocumented id) and the doc side
        # (stale row).
        self._copy_real_tree()
        sched = os.path.join(self.root, "src", "sched", "scheduler.cc")
        with open(sched, encoding="utf-8") as f:
            content = f.read()
        self.assertIn("(free-slots)", content)
        with open(sched, "w", encoding="utf-8") as f:
            f.write(content.replace("(free-slots)", "(freed-slots)"))
        self.assert_finding(
            "ICP010", "'freed-slots' is not documented",
            "src/sched/scheduler.cc",
        )
        self.assert_finding(
            "ICP010", "'free-slots' has no annotated code site",
            "docs/concurrency.md",
        )

    # -- frontend selection ------------------------------------------

    def test_require_libclang_without_db_exits_2(self) -> None:
        # The fixture tree has no build/compile_commands.json, so the
        # libclang frontend must refuse (exit 2) rather than silently
        # fall back — whether or not clang.cindex is importable here.
        code, out, err = run_analyzer(self.root, "--require-libclang")
        self.assertEqual(
            code, 0, f"structural frontend should still work:\n{out}\n{err}"
        )
        proc = subprocess.run(
            [
                sys.executable,
                ANALYZER,
                "--root",
                self.root,
                "--frontend",
                "libclang",
                "--require-libclang",
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        self.assertEqual(proc.returncode, 2, proc.stderr)


def read(root: str, relpath: str) -> str:
    with open(os.path.join(root, relpath), encoding="utf-8") as f:
        return f.read()


class RealTreeTest(unittest.TestCase):
    def test_repo_tree_is_clean(self) -> None:
        code, out, err = run_analyzer(REPO_ROOT)
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")


if __name__ == "__main__":
    unittest.main()
