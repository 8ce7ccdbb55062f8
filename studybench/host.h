/**
 * @file
 * What the study benchmark reads from the host: environment knobs it
 * pins or refuses, host facts it prints, a program-independent speed
 * probe, and the process counters behind peak RSS and bytes written.
 */

#ifndef STUDYBENCH_HOST_H
#define STUDYBENCH_HOST_H

#include <cstdint>
#include <string>

namespace studybench {

/**
 * Pin every environment knob the program reads. TSP_JOBS, TSP_BATCH,
 * TSP_SCALE and TSP_PARANOID are overridden through the program's own
 * API (explicit SweepOptions, Lab scale, setDefaultParanoidEvery(0)).
 * TSP_METRICS, TSP_METRICS_OUT, TSP_FAULT and TSP_OUT have no such
 * API, so when one is set this returns its name and the run must be
 * refused; otherwise it returns an empty string.
 */
std::string pinKnobs();

/** Filesystem type of the directory @p path ("tmpfs", "ext4", ...). */
std::string filesystemType(const std::string &path);

/**
 * Milliseconds for a fixed, program-independent amount of work
 * (dependent random reads over 8 MiB plus integer mixing). It shows
 * host drift next to the metrics and never adjusts one.
 */
double hostSpeedProbeMs();

/** The process's peak resident set size in MB (VmHWM). */
double peakRssMb();

/** Bytes the calling thread has passed to write() so far (wchar). */
uint64_t threadBytesWritten();

} // namespace studybench

#endif // STUDYBENCH_HOST_H
