(** Figure regeneration: CSV data files and gnuplot scripts for the
    paper's plots (Fig. 4, Fig. 5(a,b), Fig. 6(a,b)), plus CSV dumps of
    every table. [gnuplot -p fig4.gp] then reproduces the figure from
    the shipped data. *)

val fig4_csv : Fig4.t -> string
(** Columns: delay, then one CDF column per algorithm. *)

val gnuplot_script :
  csv:string -> title:string -> xlabel:string -> ylabel:string -> columns:string list -> string
(** A standalone gnuplot script plotting every named column of a CSV
    (first column is the x axis) with lines+points. *)

type written = {
  directory : string;
  files : string list;  (** relative file names, in creation order *)
}

val write_all : ?runs:int -> ?seed:int -> directory:string -> unit -> written
(** Run Fig. 4/5/6 and Tables 1/3/4 and write their CSVs and the
    figures' gnuplot scripts into [directory] (created if missing).
    Raises [Sys_error] on unwritable paths. *)
