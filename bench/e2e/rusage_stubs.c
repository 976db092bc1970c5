/* Peak resident set size for the benchmark's peak_rss_mb metric. */
#include <sys/resource.h>
#include <caml/mlvalues.h>

/* [who] 0: this process; 1: every descendant it has waited for, which
   for a CLI workload is the largest rbcast process, Dist workers
   included.  Linux reports ru_maxrss in kilobytes. */
value rbbench_maxrss_kb(value who)
{
  struct rusage ru;
  if (getrusage(Int_val(who) ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru) != 0)
    return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
