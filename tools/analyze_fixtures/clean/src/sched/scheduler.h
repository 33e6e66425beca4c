// Analyzer fixture: second ICP014 scope file. A reference member and
// a mutex-guarded region list.

#ifndef FIX_SCHED_SCHEDULER_H_
#define FIX_SCHED_SCHEDULER_H_

#include "sched/admission.h"

class Scheduler {
 public:
  void RunLocked() ICP_REQUIRES(mu_);

 private:
  Mutex mu_;
  Governor& governor_;
  int regions_ ICP_GUARDED_BY(mu_) = 0;
};

#endif  // FIX_SCHED_SCHEDULER_H_
