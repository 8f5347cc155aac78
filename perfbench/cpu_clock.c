/* CPU time of the whole process, in nanoseconds (CLOCK_PROCESS_CPUTIME_ID).
   The kernel leaves out time spent waiting for a CPU, including time
   stolen by a hypervisor, so a shared host perturbs it less than wall
   time. */

#include <time.h>
#include <caml/mlvalues.h>

value perfbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
