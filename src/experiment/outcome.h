/**
 * @file
 * Per-job result-or-error container for the fault-isolated experiment
 * engine. A sweep of hundreds of (app x algorithm x point) cells must
 * not discard every completed result because one cell threw — each
 * job's success or captured failure travels in an Outcome, and the
 * studies decide how a failed cell degrades (reported-and-skipped).
 */

#ifndef TSP_EXPERIMENT_OUTCOME_H
#define TSP_EXPERIMENT_OUTCOME_H

#include <string>
#include <utility>

#include "util/error.h"

namespace tsp::experiment {

/**
 * Either a value or a captured error message. Accessing the wrong arm
 * is a PanicError (a caller bug), never undefined behavior.
 */
template <typename T>
class Outcome
{
  public:
    /** Default state: a failure with a descriptive poison message (so
     *  vectors of outcomes start out safely poisoned, and a cell that
     *  was never reached — crash, cancellation, engine bug — reports
     *  something actionable instead of an empty string). */
    Outcome() = default;

    /** Build a successful outcome holding @p value. */
    static Outcome
    success(T value)
    {
        Outcome o;
        o.ok_ = true;
        o.value_ = std::move(value);
        o.error_.clear();
        return o;
    }

    /** Build a failed outcome carrying @p error. */
    static Outcome
    failure(std::string error)
    {
        Outcome o;
        o.ok_ = false;
        o.error_ = std::move(error);
        return o;
    }

    /**
     * Build the outcome of a cell a CancelToken skipped, carrying the
     * token's @p reason: no value, and no failure either (a resume
     * runs the cell).
     */
    static Outcome
    cancellation(std::string reason)
    {
        Outcome o = failure(std::move(reason));
        o.cancelled_ = true;
        return o;
    }

    /** True when a value is present. */
    bool ok() const { return ok_; }

    /** True when the cell was skipped; error() is the reason. */
    bool cancelled() const { return cancelled_; }

    /** The value; PanicError when the outcome is a failure. */
    const T &
    value() const
    {
        util::panicIf(!ok_, "Outcome::value() on a failed outcome: " +
                                error_);
        return value_;
    }

    /** @copydoc value() const */
    T &
    value()
    {
        util::panicIf(!ok_, "Outcome::value() on a failed outcome: " +
                                error_);
        return value_;
    }

    /** The captured error; PanicError when the outcome succeeded. */
    const std::string &
    error() const
    {
        util::panicIf(ok_, "Outcome::error() on a successful outcome");
        return error_;
    }

  private:
    bool ok_ = false;
    bool cancelled_ = false;
    std::string error_ =
        "job never ran (sweep ended before this cell was attempted)";
    T value_{};
};

} // namespace tsp::experiment

#endif // TSP_EXPERIMENT_OUTCOME_H
