/**
 * @file
 * What tsp-run's commands share beyond the argument parser: the exit
 * codes, the process's one cancel token, and the commands that live
 * in files of their own.
 */

#ifndef TSP_TOOLS_TSP_RUN_H
#define TSP_TOOLS_TSP_RUN_H

#include <chrono>

#include "util/cancel.h"

namespace tsp::tools {

/** Exit codes: the table in tools/tsp-run.cc's header. */
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitDegraded = 3;
constexpr int kExitCancelled = 4;

/**
 * The process's one cancel token: from this call on SIGINT and
 * SIGTERM trip it, and so does the token itself @p deadline from now
 * when @p deadline is nonzero. Call at most once.
 */
util::CancelToken &cancelOnSignal(std::chrono::milliseconds deadline = {});

/** The signal that tripped the token, or 0. */
int caughtSignal();

/** `tsp-run trace gen|info|analyze|dump ...` (tools/trace.cc). */
int runTrace(int argc, char **argv);

/** `tsp-run serve [options]` (tools/serve.cc). */
int runServe(int argc, char **argv);

/** `tsp-run client --port PORT [options]` (tools/client.cc). */
int runClient(int argc, char **argv);

} // namespace tsp::tools

#endif // TSP_TOOLS_TSP_RUN_H
