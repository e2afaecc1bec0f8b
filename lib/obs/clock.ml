let clock = ref Unix.gettimeofday
let set_clock f = clock := f
let now_s () = !clock ()
