/* Process helpers the OCaml Unix library lacks: a monotonic clock, the
   CPU count of the affinity mask, and a wait that returns the child's
   own resource usage (user/system CPU and peak RSS) with a deadline. */

#define _GNU_SOURCE
#include <errno.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

static double now_s(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

double perfbench_now_unboxed(value unit)
{
  (void)unit;
  return now_s();
}

value perfbench_now(value unit) { return caml_copy_double(now_s()); }

value perfbench_nproc(value unit)
{
  cpu_set_t set;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return Val_int(sysconf(_SC_NPROCESSORS_ONLN));
  return Val_int(CPU_COUNT(&set));
}

/* Block until [pid] exits or [timeout] seconds pass (then kill it with
   SIGKILL and reap it).  Returns (status, user_s, sys_s, maxrss_kb),
   where status is the exit code, 128 + signal for a signalled child,
   and -1 when the deadline killed it. */
value perfbench_wait(value vpid, value vtimeout)
{
  CAMLparam2(vpid, vtimeout);
  CAMLlocal1(res);
  pid_t pid = Int_val(vpid);
  double deadline = now_s() + Double_val(vtimeout);
  int status = 0, killed = 0;
  struct rusage ru = { 0 };
  pid_t r;

  caml_enter_blocking_section();
#ifdef SYS_pidfd_open
  int pfd = (int)syscall(SYS_pidfd_open, pid, 0);
#else
  int pfd = -1;
#endif
  for (;;) {
    r = wait4(pid, &status, WNOHANG, &ru);
    if (r == pid || (r < 0 && errno != EINTR)) break;
    double left = deadline - now_s();
    if (left <= 0) {
      kill(pid, SIGKILL);
      killed = 1;
      do r = wait4(pid, &status, 0, &ru); while (r < 0 && errno == EINTR);
      break;
    }
    if (pfd >= 0) {
      struct pollfd p = { .fd = pfd, .events = POLLIN, .revents = 0 };
      poll(&p, 1, (int)(left * 1000.0) + 1);
    } else {
      struct timespec ms = { 0, 1000000 };
      nanosleep(&ms, NULL);
    }
  }
  if (pfd >= 0) close(pfd);
  caml_leave_blocking_section();

  int code;
  if (r != pid) code = -2;
  else if (killed) code = -1;
  else if (WIFEXITED(status)) code = WEXITSTATUS(status);
  else if (WIFSIGNALED(status)) code = 128 + WTERMSIG(status);
  else code = -2;
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, caml_copy_double((double)ru.ru_utime.tv_sec
                                       + ru.ru_utime.tv_usec * 1e-6));
  Store_field(res, 2, caml_copy_double((double)ru.ru_stime.tv_sec
                                       + ru.ru_stime.tv_usec * 1e-6));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
